// One table-driven benchmark over the artifact catalog: each sub-benchmark
// regenerates one simulator artifact through the same driver cmd/experiments
// runs. It is a -cpuprofile entry point, not a gate — speed claims are made
// and checked with `bash bench/run.sh` under the metric names BENCHMARK.json
// declares.
//
//	go test -run '^$' -bench 'Artifact/S1$' -benchtime 5x -cpuprofile /tmp/s1.prof .
package main

import (
	"testing"

	"repro/internal/runner"
)

func BenchmarkArtifact(b *testing.B) {
	for _, e := range runner.Artifacts {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (runner.Catalog{e}).Run(runner.Options{Parallel: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

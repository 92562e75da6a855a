// Command benchab is the benchmark's A/B rule as a command: it runs
// bench/run.sh at two revisions in alternating pairs and reports, per
// metric, what the pairs show.
//
//	go run ./cmd/benchab -base HEAD -workloads net-stream -seeds 1,2,3 -pairs 10
//	go run ./cmd/benchab -base HEAD -new HEAD -pairs 5      an A/A run: the noise floor
//
// A revision is a git commit, extracted with git archive under .bench_build/
// (no worktree is registered, nothing is fetched); -new defaults to the
// working tree. Each run is `bash bench/run.sh -workload W -seed S` in that
// tree, and its last stdout line is the result JSON. Pair k runs the base
// first when k is even and the new tree first when it is odd. Per workload
// and metric the report gives both sides' medians and quartiles, the pairs
// the new tree won, the median relative delta per seed, and
// runner.Classify's class over the per-pair deltas; an exact metric (the
// simulator's counts) is compared for identity instead. -out appends the
// run — its revisions, report and every raw pair — to a JSON file's Runs,
// so one file can hold a claim's runs and an A/A noise floor.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/runner"
)

// result is the JSON line bench/run.sh prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pair is one alternating pair of runs of a workload at a seed: each
// side's metrics and failed requests.
type pair struct {
	Workload              string
	Seed                  int64
	Base, New             map[string]float64
	BaseFailed, NewFailed int
}

// summary is one metric of one workload over its pairs.
type summary struct {
	Workload, Metric string
	Exact            bool
	// Base and New are the median and quartiles, [Q1, median, Q3].
	Base, New [3]float64
	// Won counts the pairs the new tree was better in; Pairs is how many
	// carried the metric.
	Won, Pairs int
	// PerSeed is the median relative delta, (new−base)/base, per seed.
	PerSeed map[int64]float64
	// Class is runner.Classify over the per-pair deltas, or "identical" /
	// "differs" for an exact metric.
	Class string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchab", flag.ContinueOnError)
	base := fs.String("base", "HEAD", "the revision compared against")
	newRev := fs.String("new", "", "the revision measured (default: the working tree)")
	workloads := fs.String("workloads", "net-stream", "comma-separated bench workloads")
	seeds := fs.String("seeds", "1", "comma-separated seeds")
	pairs := fs.Int("pairs", 10, "alternating pairs per workload and seed")
	outFile := fs.String("out", "", "append the run, its report and raw pairs, to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *pairs < 1 {
		return fmt.Errorf("usage: benchab [-base REV] [-new REV] [-workloads W,…] [-seeds S,…] [-pairs N] [-out FILE]")
	}
	var seedList []int64
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", s)
		}
		seedList = append(seedList, v)
	}
	better, err := directions("BENCHMARK.json")
	if err != nil {
		return err
	}
	baseDir, err := extract(*base)
	if err != nil {
		return err
	}
	newDir := "."
	if *newRev != "" {
		if newDir, err = extract(*newRev); err != nil {
			return err
		}
	}
	var all []pair
	for _, w := range strings.Split(*workloads, ",") {
		for _, s := range seedList {
			for k := 0; k < *pairs; k++ {
				dirs := [2]string{baseDir, newDir}
				if k%2 == 1 {
					dirs[0], dirs[1] = dirs[1], dirs[0]
				}
				var res [2]*result
				for i, dir := range dirs {
					if res[i], err = bench(dir, w, s); err != nil {
						return err
					}
				}
				if k%2 == 1 {
					res[0], res[1] = res[1], res[0]
				}
				p := pair{Workload: w, Seed: s, Base: values(res[0]), New: values(res[1]),
					BaseFailed: res[0].Failed, NewFailed: res[1].Failed}
				fmt.Fprintf(os.Stderr, "benchab: %s seed %d pair %d/%d done\n", w, s, k+1, *pairs)
				all = append(all, p)
			}
		}
	}
	sums := summarize(all, better)
	report(out, sums)
	if *outFile == "" {
		return nil
	}
	var doc struct{ Runs []json.RawMessage }
	if raw, err := os.ReadFile(*outFile); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", *outFile, err)
		}
	}
	this, err := json.Marshal(struct {
		Base, New string
		Summary   []summary
		Pairs     []pair
	}{*base, or(*newRev, "working tree"), sums, all})
	if err != nil {
		return err
	}
	doc.Runs = append(doc.Runs, this)
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*outFile, append(raw, '\n'), 0o644)
}

func or(s, otherwise string) string {
	if s == "" {
		return otherwise
	}
	return s
}

// directions reads each end-to-end metric's better direction ("lower" or
// "higher") from the benchmark's declaration.
func directions(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]string{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Better
	}
	return out, nil
}

// extract writes revision rev's tree under .bench_build/ab-<commit>, once,
// and returns its directory.
func extract(rev string) (string, error) {
	sha, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse %s: %w", rev, err)
	}
	dir := filepath.Join(".bench_build", "ab-"+strings.TrimSpace(string(sha))[:12])
	if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tar := dir + ".tar"
	defer os.Remove(tar)
	for _, c := range [][]string{{"git", "archive", "-o", tar, strings.TrimSpace(string(sha))}, {"tar", "-xf", tar, "-C", dir}} {
		if msg, err := exec.Command(c[0], c[1:]...).CombinedOutput(); err != nil {
			return "", fmt.Errorf("%s: %w: %s", strings.Join(c, " "), err, msg)
		}
	}
	return dir, nil
}

// bench runs one workload at one seed in tree dir, for the benchmark's own
// run length, and reads its result line.
func bench(dir, workload string, seed int64) (*result, error) {
	args := []string{"bench/run.sh", "-workload", workload, "-seed", strconv.FormatInt(seed, 10)}
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: bash %s: %w", dir, strings.Join(args, " "), err)
	}
	return parseResult(stdout)
}

// parseResult reads the last line of a run's output as its result.
func parseResult(stdout []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if len(r.Metrics) == 0 {
		return nil, errors.New("result line carries no metrics")
	}
	return &r, nil
}

func values(r *result) map[string]float64 {
	out := map[string]float64{}
	for k, m := range r.Metrics {
		out[k] = m.Value
	}
	return out
}

// exact reports whether a metric is an exact count of the simulator, which
// any change moves: the sim_* metrics everywhere, and every count of a sim-*
// workload but its wall-clock ones.
func exact(workload, metric string) bool {
	return strings.HasPrefix(metric, "sim_") ||
		strings.HasPrefix(workload, "sim-") && (metric == "msgs_per_req" || metric == "bytes_per_req")
}

// quartiles are the first quartile, the median and the third, interpolated.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		i := p * float64(len(s)-1)
		lo := int(i)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (i-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// summarize reduces the pairs to one summary per workload and metric, in
// workload order of first appearance, then metric name.
func summarize(pairs []pair, better map[string]string) []summary {
	var out []summary
	var workloads []string
	for _, p := range pairs {
		if !slices.Contains(workloads, p.Workload) {
			workloads = append(workloads, p.Workload)
		}
	}
	for _, w := range workloads {
		var metrics []string
		for _, p := range pairs {
			for m := range p.Base {
				if _, ok := p.New[m]; ok && p.Workload == w && !slices.Contains(metrics, m) {
					metrics = append(metrics, m)
				}
			}
		}
		slices.Sort(metrics)
		for _, m := range metrics {
			s := summary{Workload: w, Metric: m, Exact: exact(w, m), PerSeed: map[int64]float64{}}
			var bs, ns, deltas []float64
			bySeed := map[int64][]float64{}
			same := true
			for _, p := range pairs {
				b, okb := p.Base[m]
				n, okn := p.New[m]
				if p.Workload != w || !okb || !okn {
					continue
				}
				s.Pairs++
				bs, ns = append(bs, b), append(ns, n)
				same = same && b == n
				d := 0.0
				if b != 0 {
					d = (n - b) / b
				}
				deltas = append(deltas, d)
				bySeed[p.Seed] = append(bySeed[p.Seed], d)
				if better[m] == "lower" && n < b || better[m] == "higher" && n > b {
					s.Won++
				}
			}
			s.Base, s.New = quartiles(bs), quartiles(ns)
			for seed, ds := range bySeed {
				s.PerSeed[seed] = quartiles(ds)[1]
			}
			switch {
			case s.Exact && same:
				s.Class = "identical"
			case s.Exact:
				s.Class = "differs"
			default:
				s.Class = string(runner.Classify(deltas))
			}
			out = append(out, s)
		}
	}
	return out
}

// report prints one line per summary.
func report(w io.Writer, sums []summary) {
	fmt.Fprintf(w, "%-12s %-16s %30s %30s %7s %8s  %s\n", "workload", "metric", "base [Q1 median Q3]", "new [Q1 median Q3]", "won", "median Δ", "class")
	for _, s := range sums {
		var seeds []int64
		for k := range s.PerSeed {
			seeds = append(seeds, k)
		}
		slices.Sort(seeds)
		var ds []float64
		for _, k := range seeds {
			ds = append(ds, s.PerSeed[k])
		}
		fmt.Fprintf(w, "%-12s %-16s %30s %30s %3d/%-3d %+7.1f%%  %s\n", s.Workload, s.Metric,
			fmt.Sprintf("%.4g %.4g %.4g", s.Base[0], s.Base[1], s.Base[2]),
			fmt.Sprintf("%.4g %.4g %.4g", s.New[0], s.New[1], s.New[2]),
			s.Won, s.Pairs, 100*quartiles(ds)[1], s.Class)
	}
}

package runner

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/experiments"
)

// Options configure one engine run.
type Options struct {
	// Seeds are the table seeds, in output order. Default {1}.
	Seeds []int64
	// Parallel is the worker-pool width. Default GOMAXPROCS; 1 forces the
	// strictly sequential schedule (output is identical either way).
	Parallel int
}

// SeedRange returns n consecutive seeds starting at base — the CLI's
// `-seed S -seeds N` convention.
func SeedRange(base int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Result is one artifact's outcome across every requested seed.
type Result struct {
	ID    string `json:"id"`
	Title string `json:"title,omitempty"`
	Kind  Kind   `json:"kind"`
	// Figure holds the rendered markdown for figure artifacts.
	Figure string `json:"figure,omitempty"`
	// Seeds and Tables hold the per-seed measurements (table artifacts);
	// Tables[i] ran at Seeds[i].
	Seeds  []int64              `json:"seeds,omitempty"`
	Tables []*experiments.Table `json:"tables,omitempty"`
	// Summary is the cross-seed aggregate (present when ≥2 seeds succeeded).
	Summary *Summary `json:"summary,omitempty"`
	// Err is the first failure among the artifact's cells, if any.
	Err error `json:"-"`
}

// MarshalJSON includes the error text alongside the exported fields.
func (r *Result) MarshalJSON() ([]byte, error) {
	type alias Result // drop methods to avoid recursion
	out := struct {
		*alias
		Error string `json:"error,omitempty"`
	}{alias: (*alias)(r)}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return json.Marshal(out)
}

// Markdown renders the artifact for EXPERIMENTS.md: figures as-is, tables
// as the single-seed table or the multi-seed aggregate.
func (r *Result) Markdown() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("### %s — failed: %v\n", r.ID, r.Err)
	case r.Kind == KindFigure:
		return r.Figure
	case r.Summary != nil:
		return r.Summary.Markdown()
	case len(r.Tables) > 0:
		return r.Tables[0].Markdown()
	default:
		return fmt.Sprintf("### %s — no output\n", r.ID)
	}
}

// RenderMarkdown concatenates the artifacts' markdown in order.
func RenderMarkdown(results []*Result) string {
	parts := make([]string, len(results))
	for i, r := range results {
		parts[i] = strings.TrimRight(r.Markdown(), "\n")
	}
	return strings.Join(parts, "\n\n") + "\n"
}

// RenderJSON emits the full per-seed + aggregate structure.
func RenderJSON(results []*Result) (string, error) {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}

// cell is one schedulable unit: a figure, or (table experiment × seed).
type cell struct {
	exp  int // index into the Result slice
	seed int // index into Options.Seeds; -1 for figures
}

// Run executes the catalog's artifacts across opt.Seeds on a pool of
// opt.Parallel workers. Each (experiment × seed) cell builds its own
// simulated machine with its own RNG, so cells are independent; results land
// in preassigned slots, making the output deterministic for a given seed
// list no matter how the pool interleaves. The returned slice always has one entry per
// artifact, in catalog order; the error is the first cell failure (the
// per-artifact detail stays on Result.Err).
func (exps Catalog) Run(opt Options) ([]*Result, error) {
	seeds := opt.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	results := make([]*Result, len(exps))
	errs := make([][]error, len(exps))
	var cells []cell
	for i, e := range exps {
		res := &Result{ID: e.ID, Title: e.Title, Kind: e.Kind()}
		if res.Kind == KindFigure {
			cells = append(cells, cell{exp: i, seed: -1})
			errs[i] = make([]error, 1)
		} else {
			res.Seeds = append([]int64(nil), seeds...)
			res.Tables = make([]*experiments.Table, len(seeds))
			errs[i] = make([]error, len(seeds))
			for si := range seeds {
				cells = append(cells, cell{exp: i, seed: si})
			}
		}
		results[i] = res
	}

	jobs := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				e := exps[c.exp]
				if c.seed < 0 {
					md, err := e.Figure()
					results[c.exp].Figure = md
					errs[c.exp][0] = err
					continue
				}
				results[c.exp].Tables[c.seed], errs[c.exp][c.seed] = e.Table(seeds[c.seed])
			}
		}()
	}
	for _, c := range cells {
		jobs <- c
	}
	close(jobs)
	wg.Wait()

	var firstErr error
	for i, res := range results {
		for _, err := range errs[i] {
			if err != nil && res.Err == nil {
				res.Err = fmt.Errorf("%s: %w", res.ID, err)
			}
		}
		if res.Err != nil {
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		if res.Kind == KindTable && len(seeds) > 1 {
			sum, err := Aggregate(res.Seeds, res.Tables)
			if err != nil {
				res.Err = err
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			res.Summary = sum
		}
	}
	return results, firstErr
}

// RunIDs resolves a request string (see Resolve) and runs it.
func (c Catalog) RunIDs(request string, opt Options) ([]*Result, error) {
	exps, err := c.Resolve(request)
	if err != nil {
		return nil, err
	}
	return exps.Run(opt)
}

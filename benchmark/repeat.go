package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// verdictLine is the JSON object a run prints last.
type verdictLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runRepeat is the A/A mode: it runs the end-to-end set n times, each run
// in a process of its own as the driver does, prints min, median and max
// of every metric, and fails if any metric's best and worst run differ by
// more than the metric's own bound in BENCHMARK.json.
func runRepeat(defs []workloadDef, n int, seed int64, seconds float64, stdout io.Writer) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64) // "workload metric" -> one value per run
	for run := 0; run < n; run++ {
		for _, def := range defs {
			cmd := exec.Command(self, "-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run %d of %s: %w", run+1, def.name, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var v verdictLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
				return fmt.Errorf("run %d of %s: last line is not a verdict: %w", run+1, def.name, err)
			}
			if !v.Correct {
				return fmt.Errorf("run %d of %s: %d of %d rounds failed", run+1, def.name, v.Failed, v.Attempted)
			}
			for name, mv := range v.Metrics {
				key := def.name + " " + name
				values[key] = append(values[key], mv.Value)
			}
		}
	}
	var moved []string
	for _, def := range defs {
		for _, e := range m.EndToEnd {
			vals := values[def.name+" "+e.Name]
			lo, hi := slices.Min(vals), slices.Max(vals)
			diff := ratio(hi-lo, lo)
			fmt.Fprintf(stdout, "%s %s min %g median %g max %g %s spread %.4f bound %g\n",
				def.name, e.Name, lo, median(vals), hi, e.Unit, diff, e.Bound)
			if diff > e.Bound {
				moved = append(moved, fmt.Sprintf("%s %s moved %.1f%% between runs of the same code (bound %.0f%%)",
					def.name, e.Name, 100*diff, 100*e.Bound))
			}
		}
	}
	if len(moved) > 0 {
		return fmt.Errorf("A/A failed:\n  %s", strings.Join(moved, "\n  "))
	}
	return nil
}

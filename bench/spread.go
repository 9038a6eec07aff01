package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is BENCHMARK.json, the benchmark's declaration.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
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

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runLine is one run's JSON result line.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// readRuns reads <dir>/<workload>.jsonl: one run's result line per
// line. A missing file yields no runs.
func readRuns(dir, workload string) ([]runLine, error) {
	f, err := os.Open(filepath.Join(dir, workload+".jsonl"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r runLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s/%s.jsonl: %w", dir, workload, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// printSpread prints, for each (workload, end-to-end metric) pair, the
// run-to-run spread of the runs in the first directory of dirList — the
// quartile distance as a share of the median — against the metric's
// bound. Given a second directory it also compares the two sets: the
// median change (positive is worse) and how many index-paired runs the
// second set won. Medians here are the middle quartile, which for an
// even number of runs averages the two middle runs, as Python's
// statistics.median does.
func printSpread(w io.Writer, dirList, benchJSON string) error {
	bf, err := loadBenchmarkFile(benchJSON)
	if err != nil {
		return err
	}
	dirs := strings.Split(dirList, ",")
	if len(dirs) > 2 {
		return errors.New("-spread takes one directory, or two to compare")
	}
	fmt.Fprintln(w, "| workload | metric | runs | median | Q1 | Q3 | spread | bound | spread/bound |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	var cmp []string
	for _, wl := range workloadNames {
		sets := make([][]runLine, len(dirs))
		for i, d := range dirs {
			if sets[i], err = readRuns(d, wl); err != nil {
				return err
			}
		}
		if len(sets[0]) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			a := values(sets[0], m.Name)
			q1, q2, q3 := quartiles(a)
			sp := relSpread(a)
			fmt.Fprintf(w, "| %s | %s | %d | %.4g | %.4g | %.4g | %.3f | %.2f | %.2f |\n",
				wl, m.Name, len(a), q2, q1, q3, sp, m.Bound, sp/m.Bound)
			if len(dirs) == 2 && len(sets[1]) > 0 {
				b := values(sets[1], m.Name)
				_, mb, _ := quartiles(b)
				worse := (mb - q2) / q2
				if m.Better == "higher" {
					worse = -worse
				}
				wins := 0
				for i := 0; i < min(len(a), len(b)); i++ {
					if (m.Better == "lower" && b[i] < a[i]) || (m.Better == "higher" && b[i] > a[i]) {
						wins++
					}
				}
				cmp = append(cmp, fmt.Sprintf("| %s | %s | %.4g | %.4g | %+.3f | %.2f | %d/%d |",
					wl, m.Name, q2, mb, worse, m.Bound, wins, min(len(a), len(b))))
			}
		}
	}
	if len(cmp) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| workload | metric | median A | median B | B worse by | bound | B wins |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
		for _, l := range cmp {
			fmt.Fprintln(w, l)
		}
	}
	return nil
}

// values extracts one metric from every run.
func values(runs []runLine, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA measures how far two sets of runs of the same code disagree:
// per workload, runs A1 B1 A2 B2 ... (run i of either set has seed
// base+i), each a fresh process as the driver starts them. For every
// (workload, end-to-end metric) it prints both medians, their gap, and
// each set's quartile and min-max spread as shares of its median. A
// bound in BENCHMARK.json stands only if the gap is at most half of it
// and the quartile spread of either set lies within it; a spread of a
// third of the bound is the aim. With n = 10 the quartile spread is the
// statistic the driver judges the benchmark by.
func runAA(n int, baseSeed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(endToEndUnits))
	for name := range endToEndUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("| workload | metric | median A | median B | gap % | IQR A % | IQR B % | min-max A % | min-max B % |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runChild(self, w.name, baseSeed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, baseSeed+int64(i), err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, baseSeed+int64(i), res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, name := range names {
			a, b := sets[0][name], sets[1][name]
			ma, mb := median(a), median(b)
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f | %s | %s | %.2f | %.2f |\n",
				w.name, name, ma, mb, 100*(mb/ma-1),
				iqrShare(a, ma), iqrShare(b, mb),
				100*(a[len(a)-1]-a[0])/ma, 100*(b[len(b)-1]-b[0])/mb)
		}
	}
	return nil
}

// iqrShare formats the distance between the quartiles of xs (sorted by
// the caller) as a percentage of med.
func iqrShare(xs []float64, med float64) string {
	if len(xs) < 2 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return strconv.FormatFloat(100*(q3-q1)/med, 'f', 2, 64)
}

// runChild runs one end-to-end run in a fresh process and parses the
// last line of its output.
func runChild(self, workload string, seed int64, seconds float64) (result, error) {
	var res result
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

type declared struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) (d declared, e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layers[m.Name] = m.Unit
	}
	return d, e2e, layers
}

// TestSelfTiny runs every workload at its tiny size, untraced and traced,
// and holds the emitted metrics to BENCHMARK.json: every workload emits
// exactly the declared end-to-end metrics (untraced, none of them 0) or
// the declared per-layer metrics (traced), each in its declared unit, and
// every check passes.
func TestSelfTiny(t *testing.T) {
	d, e2e, layers := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !equal(names, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", names, defined)
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			decl := e2e
			if traced {
				decl = layers
			}
			var out bytes.Buffer
			res, err := execute(context.Background(), options{
				workload: w.name, seed: 3, seconds: 0.4, trace: traced, tiny: true,
			}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if u, ok := decl[name]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json declares %q (declared: %v)",
						w.name, traced, name, m.Unit, u, ok)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
				}
			}
			var want []string
			for name := range decl {
				want = append(want, name)
			}
			if !equal(got, want) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
		}
	}
}

// TestMissingWorkload is the argument check the command relies on.
func TestMissingWorkload(t *testing.T) {
	if _, err := execute(context.Background(), options{workload: "nope", seconds: 1}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

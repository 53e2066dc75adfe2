package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// The reference rows of every workload at the default seed, one file per
// workload, written by -write-reference.
//
//go:embed reference/*.json
var referenceFiles embed.FS

func loadReference(workload string) (map[string]map[string]float64, error) {
	b, err := referenceFiles.ReadFile("reference/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("reference rows for %s: %w", workload, err)
	}
	var rows map[string]map[string]float64
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("reference rows for %s: %w", workload, err)
	}
	return rows, nil
}

// checker is the output check. Every cell must finish without error and
// pass its workload's invariants. A cell whose inputs already ran in this
// process must reproduce the earlier rows exactly, whether traced or not.
// At the default seed every cell must also match its stored reference row.
type checker struct {
	ref       map[string]map[string]float64
	strict    bool
	seen      map[string]map[string]float64
	attempted int
	failed    int
	messages  []string
}

func newChecker(ref map[string]map[string]float64, strict bool) *checker {
	return &checker{ref: ref, strict: strict, seen: map[string]map[string]float64{}}
}

func (c *checker) unit(u unit) {
	for i := range u.cells {
		c.cell(&u.cells[i])
	}
}

func (c *checker) cell(x *cell) {
	c.attempted++
	if x.err == "" && len(x.rows) == 0 {
		x.fail("no result rows")
	}
	if prev, ok := c.seen[x.key]; ok && x.err == "" {
		if d := diffRows(prev, x.rows); d != "" {
			x.fail("rows differ from an earlier run of the same inputs: " + d)
		}
	} else if x.err == "" {
		c.seen[x.key] = x.rows
	}
	if c.strict && x.err == "" {
		want, ok := c.ref[x.key]
		if !ok {
			x.fail("no reference row")
		} else if d := diffRows(want, x.rows); d != "" {
			x.fail("rows differ from the reference: " + d)
		}
	}
	if x.err != "" {
		c.failed++
		if len(c.messages) < 20 {
			c.messages = append(c.messages, x.key+": "+x.err)
		}
	}
}

// diffRows describes how got differs from want ("" when equal).
func diffRows(want, got map[string]float64) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var diffs []string
	for _, k := range names {
		w, wok := want[k]
		g, gok := got[k]
		if wok != gok || w != g {
			diffs = append(diffs, fmt.Sprintf("%s: want %v, got %v", k, w, g))
		}
	}
	return strings.Join(diffs, "; ")
}

// Command mets-bench regenerates the tables and figures of the thesis'
// evaluation sections. Each experiment id (e.g. fig3.4, table4.1) prints the
// same rows/series the paper reports, at a configurable scale.
//
// Usage:
//
//	mets-bench [-scale N] [-queries N] <experiment-id>...
//	mets-bench -list
//	mets-bench all
//
// Scale 1 uses laptop-friendly dataset sizes (hundreds of thousands of
// keys); the thesis' 50M-key runs correspond to roughly -scale 100.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one reproducible table or figure.
type experiment struct {
	id    string
	title string
	run   func(ctx *benchContext)
}

var registry []experiment

func register(id, title string, run func(*benchContext)) {
	registry = append(registry, experiment{id, title, run})
}

// benchContext carries the shared knobs.
type benchContext struct {
	scale   int // dataset multiplier
	queries int // queries per measurement
}

// keysAtScale returns the base dataset size for tree experiments.
func (c *benchContext) numKeys() int { return 200000 * c.scale }

func main() {
	scale := flag.Int("scale", 1, "dataset scale multiplier (1 = ~200k keys)")
	queries := flag.Int("queries", 200000, "queries per measurement")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	sort.SliceStable(registry, func(i, j int) bool { return registry[i].id < registry[j].id })
	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.id, e.title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mets-bench [-scale N] <experiment-id>... | -list | all")
		os.Exit(2)
	}
	ctx := &benchContext{scale: *scale, queries: *queries}
	runAll := len(args) == 1 && args[0] == "all"
	for _, e := range registry {
		selected := runAll
		for _, a := range args {
			if strings.EqualFold(a, e.id) {
				selected = true
			}
		}
		if !selected {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", e.id, e.title)
		e.run(ctx)
	}
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig5,fig10,table4
//	experiments -run all -scale 0.05 -window 4000000 -markdown
//
// -scale compresses the hour-long experiments (0.05 = 3 simulated minutes
// per workload, counts scaled back to the hour); -window sets the sampled
// instruction window for the per-1B characterizations.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"darkarts/internal/experiments"
	"darkarts/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids")
	runIDs := fs.String("run", "all", "comma-separated experiment ids, or 'all'")
	scale := fs.Float64("scale", 0.02, "hour-experiment compression (1.0 = full hour)")
	window := fs.Uint64("window", experiments.DefaultWindow, "instruction window for characterizations")
	markdown := fs.Bool("markdown", false, "emit GitHub markdown instead of plain tables")
	seed := fs.Int64("seed", 7, "dataset seed for the ML experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}

	type gen func() ([]experiments.Table, error)

	var charCache []workload.CharacterizationResult
	characterize := func() ([]workload.CharacterizationResult, error) {
		if charCache == nil {
			res, err := experiments.Characterization(*window)
			if err != nil {
				return nil, err
			}
			charCache = res
		}
		return charCache, nil
	}
	charTable := func(f func([]workload.CharacterizationResult) experiments.Table) gen {
		return func() ([]experiments.Table, error) {
			res, err := characterize()
			if err != nil {
				return nil, err
			}
			return []experiments.Table{f(res)}, nil
		}
	}

	var hourly map[string]experiments.Table
	hourlyTable := func(id string) gen {
		return func() ([]experiments.Table, error) {
			if hourly == nil {
				res, err := experiments.HourlyResults(experiments.HourScale(*scale))
				if err != nil {
					return nil, err
				}
				hourly = map[string]experiments.Table{
					"fig12":  experiments.Figure12(res),
					"fig13":  experiments.Figure13(res),
					"fig15":  experiments.Figure15(res),
					"fig16":  experiments.Figure16(res),
					"fig17":  experiments.Figure17(res),
					"table3": experiments.TableIII(res),
				}
			}
			return []experiments.Table{hourly[id]}, nil
		}
	}

	gens := map[string]gen{
		"fig1": func() ([]experiments.Table, error) { return []experiments.Table{experiments.Figure1()}, nil },
		"fig2": func() ([]experiments.Table, error) {
			return []experiments.Table{experiments.Figure2(experiments.HourScale(*scale))}, nil
		},
		"table1": func() ([]experiments.Table, error) { return []experiments.Table{experiments.TableI()}, nil },
		"table2": func() ([]experiments.Table, error) { return []experiments.Table{experiments.TableII()}, nil },
		"fig5":   charTable(experiments.Figure5),
		"fig6":   charTable(experiments.Figure6),
		"fig7":   charTable(experiments.Figure7),
		"fig8":   charTable(experiments.Figure8),
		"fig9":   charTable(experiments.Figure9),
		"fig10":  charTable(experiments.Figure10),
		"fig11":  charTable(experiments.Figure11),
		"fig12":  hourlyTable("fig12"),
		"fig13":  hourlyTable("fig13"),
		"fig15":  hourlyTable("fig15"),
		"fig16":  hourlyTable("fig16"),
		"fig17":  hourlyTable("fig17"),
		"table3": hourlyTable("table3"),
		"fig14": func() ([]experiments.Table, error) {
			tab, err := experiments.Figure14()
			return []experiments.Table{tab}, err
		},
		"threshold-sweep": func() ([]experiments.Table, error) {
			return []experiments.Table{experiments.ThresholdSweep()}, nil
		},
		"throttling": func() ([]experiments.Table, error) {
			tab, err := experiments.ThrottlingDetection()
			return []experiments.Table{tab}, err
		},
		"table4": func() ([]experiments.Table, error) { return []experiments.Table{experiments.TableIV()}, nil },
		"fig18": func() ([]experiments.Table, error) {
			_, tab, err := experiments.Figure18(*seed)
			return []experiments.Table{tab}, err
		},
		"overhead": func() ([]experiments.Table, error) {
			_, tab, err := experiments.Overhead(experiments.DefaultOverheadConfig())
			return []experiments.Table{tab}, err
		},
	}

	ids := make([]string, 0, len(gens))
	for id := range gens {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}

	selected := ids
	if *runIDs != "all" {
		selected = strings.Split(*runIDs, ",")
	}
	for _, id := range selected {
		id = strings.TrimSpace(id)
		g, ok := gens[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		tabs, err := g()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, tab := range tabs {
			if *markdown {
				fmt.Print(tab.Markdown())
			} else {
				fmt.Println(tab.String())
			}
		}
	}
	return nil
}

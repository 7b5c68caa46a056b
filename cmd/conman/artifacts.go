package main

import (
	"fmt"
	"os"
	"strings"

	"conman/internal/experiments"
)

// artifact adapts one table/figure regenerator — a title and a function
// rendering the body — to a command. Further artifact names may follow
// on the command line (`conman table3 fig5`); they run in order.
func artifact(title string, render func() (string, error)) func(string, []string) error {
	return func(_ string, more []string) error {
		fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
		out, err := render()
		if err != nil {
			return err
		}
		fmt.Print(out)
		return runArtifacts(more)
	}
}

func runArtifacts(names []string) error {
	for _, name := range names {
		c := lookup(name)
		if c == nil || c.group != groupArtifacts {
			usage(os.Stderr)
			return fmt.Errorf("unknown artifact %q", name)
		}
		if err := c.run(name, nil); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func allArtifacts(_ string, more []string) error {
	all := []string{"table3", "table4", "paths", "fig5", "fig7", "fig8", "fig9", "table5", "table6", "fig3"}
	return runArtifacts(append(all, more...))
}

func table3() (string, error) {
	_, out, err := experiments.Table3()
	return out, err
}

func table5() (string, error) {
	_, out, err := experiments.Table5()
	return out, err
}

func table6() (string, error) {
	_, out, err := experiments.Table6([]int{3, 4, 5, 6, 7, 8})
	return out + "formulas: GRE 3n+2 / 2n+2; MPLS and VLAN 3n-2 / 2n-1\n", err
}

func fig3() (string, error) {
	tb, err := experiments.BuildFig4()
	if err != nil {
		return "", err
	}
	// Sequential mode keeps the trace in chronological order — Fig 3
	// is a time-ordered sequence diagram.
	tb.NM.Sequential = true
	tb.NM.EnableMessageLog()
	if _, _, err := experiments.ConfigureVPN(tb, experiments.Fig4Goal(), "GRE-IP tunnel"); err != nil {
		return "", err
	}
	return indent(tb.NM.MessageLog()), nil
}

func fig5() (string, error) {
	edges, dot, err := experiments.Fig5()
	return indent(edges) + "\nGraphviz:\n" + dot, err
}

func paths() (string, error) {
	res, err := experiments.Paths9()
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// comparison renders one of the today-vs-CONMan figures (Fig 7/8/9).
func comparison(f func() (*experiments.ConfigComparison, error)) func() (string, error) {
	return func() (string, error) {
		cmp, err := f()
		if err != nil {
			return "", err
		}
		return cmp.Render(), nil
	}
}

func indent(lines []string) string {
	var b strings.Builder
	for _, line := range lines {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

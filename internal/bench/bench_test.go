package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// tiny options keep harness tests fast while exercising every code path.
func tinyOptions() Options {
	return Options{
		N:     1 << 14,
		Sizes: []int{1 << 12, 1 << 13},
		Procs: []int{1, 2},
		Reps:  1,
		Seed:  7,
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.N <= 0 || len(o.Sizes) == 0 || len(o.Procs) == 0 || o.Reps <= 0 || o.Seed == 0 || o.Out == nil {
		t.Errorf("defaults incomplete: %+v", o)
	}
	if o.MaxProcs() != 8 {
		t.Errorf("MaxProcs = %d", o.MaxProcs())
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	d := timeIt(3, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 3 {
		t.Errorf("fn called %d times", calls)
	}
	if d < 500*time.Microsecond {
		t.Errorf("min duration %v implausibly small", d)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if got := secs(1500 * time.Millisecond); got != "1.50" {
		t.Errorf("secs = %q", got)
	}
	if got := secs(5 * time.Millisecond); got != "0.0050" {
		t.Errorf("secs small = %q", got)
	}
	if got := ratio(2*time.Second, time.Second); got != "2.00" {
		t.Errorf("ratio = %q", got)
	}
	if got := ratio(time.Second, 0); got != "-" {
		t.Errorf("ratio zero den = %q", got)
	}
	if got := pct(0.345); got != "34.5" {
		t.Errorf("pct = %q", got)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow(1, "x")
	tab.AddRow(22, "yyy")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "bb", "22", "yyy", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	tab.CSV(&buf)
	if got := buf.String(); got != "a,bb\n1,x\n22,yyy\n" {
		t.Errorf("csv = %q", got)
	}
}

// Each experiment must run end-to-end on tiny inputs and produce
// plausible, non-empty tables.
func TestRunTable1Tiny(t *testing.T) {
	tabs := RunTable1(tinyOptions())
	if len(tabs) != 2 {
		t.Fatalf("got %d tables", len(tabs))
	}
	if len(tabs[0].Rows) != 17 {
		t.Errorf("table 1 has %d rows, want 17 distributions", len(tabs[0].Rows))
	}
}

func TestRunTable2And3Tiny(t *testing.T) {
	for _, fn := range []func(Options) []*Table{RunTable2, RunTable3} {
		tabs := fn(tinyOptions())
		if len(tabs) != 1 {
			t.Fatalf("got %d tables", len(tabs))
		}
		if len(tabs[0].Rows) != 6 { // 5 phases + total
			t.Errorf("breakdown has %d rows, want 6", len(tabs[0].Rows))
		}
		// Percentages should sum to ~100 in both columns.
		for _, col := range []int{2, 4} {
			sum := 0.0
			for _, row := range tabs[0].Rows[:5] {
				var v float64
				if _, err := fmtSscan(row[col], &v); err != nil {
					t.Fatalf("bad pct cell %q", row[col])
				}
				sum += v
			}
			if sum < 95 || sum > 105 {
				t.Errorf("phase percentages sum to %.1f", sum)
			}
		}
	}
}

func TestRunTable4Tiny(t *testing.T) {
	tabs := RunTable4(tinyOptions())
	if len(tabs[0].Rows) != 2 {
		t.Errorf("table 4 rows = %d, want one per size", len(tabs[0].Rows))
	}
}

func TestRunTable5Tiny(t *testing.T) {
	tabs := RunTable5(tinyOptions())
	if len(tabs[0].Rows) != 4 { // 2 sizes x 2 distributions
		t.Errorf("table 5 rows = %d, want 4", len(tabs[0].Rows))
	}
}

func TestRunSeqBaselinesTiny(t *testing.T) {
	tabs := RunSeqBaselines(tinyOptions())
	if len(tabs[0].Rows) != 2 {
		t.Errorf("rows = %d", len(tabs[0].Rows))
	}
}

func TestRunFiguresTiny(t *testing.T) {
	o := tinyOptions()
	if got := len(RunFig1(o)); got != 3 {
		t.Errorf("fig1 tables = %d, want 3", got)
	}
	if got := len(RunFig2(o)); got != 2 {
		t.Errorf("fig2 tables = %d, want 2", got)
	}
	if got := len(RunFig3(o)); got != 2 {
		t.Errorf("fig3 tables = %d, want 2", got)
	}
	if got := len(RunFig4(o)); got != 2 {
		t.Errorf("fig4 tables = %d, want 2", got)
	}
	if got := len(RunFig5(o)); got != 1 {
		t.Errorf("fig5 tables = %d, want 1", got)
	}
}

func TestRunAblationTiny(t *testing.T) {
	tabs := RunAblation(tinyOptions())
	if len(tabs) != 3 {
		t.Errorf("ablation tables = %d, want 3", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Errorf("ablation table %q empty", tab.Title)
		}
	}
}

func TestExperimentsWriteOutput(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions()
	o.Out = &buf
	RunTable2(o)
	if !strings.Contains(buf.String(), "scatter") {
		t.Error("rendered output missing phase rows")
	}
}

// fmtSscan parses a numeric cell.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestRunRRCompareTiny(t *testing.T) {
	tabs := RunRRCompare(tinyOptions())
	if len(tabs) != 1 || len(tabs[0].Rows) != 4 {
		t.Fatalf("rrcompare tables/rows wrong: %d tables", len(tabs))
	}
}

func TestRunReduceTiny(t *testing.T) {
	tabs := RunReduce(tinyOptions())
	if len(tabs) != 2 {
		t.Fatalf("reduce tables = %d, want 2", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 3 { // 3 distributions, one fused route
			t.Errorf("table %q rows = %d, want 3", tab.Title, len(tab.Rows))
		}
	}
}

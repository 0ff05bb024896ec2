package paper

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestReportGolden pins every value of the evaluation artifact: the
// fault-free report must equal testdata/report.md byte for byte, once
// rendered serially and once with four sweep workers on four procs (a
// one-CPU host would otherwise collapse the sweep to serial and never
// run the parallel path). When a model change moves a value on purpose,
// regenerate the golden with
//
//	go run ./cmd/hmc-bench -out internal/paper/testdata/report.md
//
// and carry the new numbers into EXPERIMENTS.md.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		workers, procs int
	}{
		{"serial", 1, 0},
		{"workers4", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			var got bytes.Buffer
			if err := Write(&got, 2, 100, tc.workers, nil, fault.Plan{}); err != nil {
				t.Fatal(err)
			}
			if diff := rowDiff(string(want), got.String()); diff != "" {
				t.Errorf("report differs from testdata/report.md:\n%s", diff)
			}
		})
	}
}

// rowDiff lists the rows that differ between two renderings of the
// report, each under the heading of the section it sits in, or returns
// "" when they are equal.
func rowDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	section := ""
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if strings.HasPrefix(w, "#") {
			section = w
		}
		if w != g {
			fmt.Fprintf(&b, "%s, line %d:\n  golden: %s\n  got:    %s\n", section, i+1, w, g)
		}
	}
	return b.String()
}

package cmcops

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cmc"
)

// opsGolden holds, for every operation the package registers, its Str()
// and every field of its descriptor.
const opsGolden = "testdata/ops.golden"

// TestOpsGolden pins each registered operation's name and descriptor
// against testdata/ops.golden.
func TestOpsGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range cmc.Names() {
		op, err := cmc.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %+v\n", op.Str(), op.Register())
	}
	got := b.String()
	want, err := os.ReadFile(opsGolden)
	if err == nil && string(want) == got {
		return
	}
	f, ferr := os.CreateTemp("", "cmc-ops-*")
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	if _, ferr := f.WriteString(got); ferr != nil {
		t.Fatal(ferr)
	}
	t.Fatalf("operations differ from %s (%v); the new rendering is in %s; if the change is intended, install it with\n\tcp %s %s",
		opsGolden, err, f.Name(), f.Name(), opsGolden)
}

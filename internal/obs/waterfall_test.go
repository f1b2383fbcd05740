package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestRenderWaterfallGolden(t *testing.T) {
	var buf bytes.Buffer
	RenderWaterfalls(&buf, journeyFixture(), 7, 0)

	golden := filepath.Join("testdata", "waterfall.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("waterfall render drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestRenderWaterfallStructure(t *testing.T) {
	var buf bytes.Buffer
	RenderWaterfalls(&buf, journeyFixture(), 7, 0)
	out := buf.String()
	for _, want := range []string{
		"journey login", "stage redirect", "stage login1", "stage login2",
		"call", "server", "mark first_key", "(1 retries)",
		"1 traces, 7 spans emitted, 0 dropped by the ring",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	// Render must be deterministic.
	var again bytes.Buffer
	RenderWaterfalls(&again, journeyFixture(), 7, 0)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("waterfall render not deterministic")
	}
}

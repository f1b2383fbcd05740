package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunMatchesGolden executes the example end to end and diffs what it
// prints against the pinned output: the run is a pure function of the
// seed, so any drift is a behaviour change.
func TestRunMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/output.golden; got:\n%s", got.Bytes())
	}
}

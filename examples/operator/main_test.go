package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
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

// TestViewingReportStable prints the viewing report of a day in which
// both partitions have views, 20 times over: every print is the same
// bytes, partitions in Options order.
func TestViewingReportStable(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	start := sys.Sched.Now()
	// Channels go to partitions round-robin: news to p1, sport to p2.
	for _, id := range []string{"news", "sport"} {
		if err := sys.DeployChannel(core.FreeToView(id, id, "100")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.RegisterUser("viewer@example.com", "pw"); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient("viewer@example.com", "pw", geo.Addr(100, 7, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		for _, id := range []string{"sport", "news"} {
			if err := c.Watch(id); err != nil {
				t.Errorf("watch %s: %v", id, err)
			}
		}
	})
	sys.Sched.RunUntil(start.Add(time.Minute))
	sys.StopAll()

	var first bytes.Buffer
	viewingReport(&first, sys, start)
	want := "\nviewing report (per partition):\n" +
		"  [p1] news     viewers=1 ticket-issues=1\n" +
		"  [p2] sport    viewers=1 ticket-issues=1\n"
	if first.String() != want {
		t.Fatalf("report:\n%s\nwant:\n%s", first.String(), want)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		viewingReport(&again, sys, start)
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("print %d differs:\n%s", i+1, again.String())
		}
	}
}

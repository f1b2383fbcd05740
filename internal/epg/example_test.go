package epg_test

import (
	"fmt"
	"time"

	"p2pdrm/internal/epg"
)

// Example compiles a broadcast day with mixed distribution rights into
// the channel attribute/policy machinery.
func Example() {
	day := time.Date(2008, 7, 10, 0, 0, 0, 0, time.UTC)
	schedule := &epg.Schedule{
		ChannelID: "one",
		Programs: []epg.Program{
			{Title: "breakfast show", Start: day.Add(7 * time.Hour), End: day.Add(9 * time.Hour), Rights: epg.RightsFree},
			{Title: "the derby", Start: day.Add(14 * time.Hour), End: day.Add(16 * time.Hour), Rights: epg.RightsBlackout},
			{Title: "title fight", Start: day.Add(21 * time.Hour), End: day.Add(23 * time.Hour), Rights: epg.RightsPPV, Package: "ppv-9"},
		},
	}
	// Deployment at midnight with 10-minute user tickets satisfies the
	// §IV-C lead-time rule for both restrictions.
	if err := schedule.Validate(day, 10*time.Minute); err != nil {
		fmt.Println("invalid:", err)
		return
	}
	attrs, rules := schedule.Compile(day, "100")
	fmt.Printf("compiled %d attributes, %d rules\n", len(attrs), len(rules))
	// Output:
	// compiled 3 attributes, 3 rules
}

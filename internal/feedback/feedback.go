// Package feedback reproduces the paper's measurement methodology (§VI):
// clients record per-round protocol latencies in "user feedback" logs;
// submitted logs form a corpus from which the evaluation computes median
// latency per hour against concurrent-user counts (Fig. 5), latency CDFs
// for peak vs. off-peak hours (Fig. 6), and the pearson product-moment
// correlation coefficients quoted in the text.
package feedback

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Round identifies one protocol message-exchange round (§IV-F, Fig. 4).
type Round int

// The five measured rounds.
const (
	Login1 Round = iota + 1
	Login2
	Switch1
	Switch2
	Join
)

// Rounds lists all rounds in display order.
var Rounds = []Round{Login1, Login2, Switch1, Switch2, Join}

// String names the round as in the paper's figures.
func (r Round) String() string {
	switch r {
	case Login1:
		return "LOGIN1"
	case Login2:
		return "LOGIN2"
	case Switch1:
		return "SWITCH1"
	case Switch2:
		return "SWITCH2"
	case Join:
		return "JOIN"
	default:
		return fmt.Sprintf("Round(%d)", int(r))
	}
}

// Sample is one measured protocol round.
type Sample struct {
	Round   Round
	At      time.Time
	Latency time.Duration
	OK      bool
}

// Log is one client's feedback log. The client records every round; the
// user may later "submit" the log to the provider.
type Log struct {
	mu      sync.Mutex
	samples []Sample
}

// NewLog creates an empty feedback log.
func NewLog() *Log { return &Log{} }

// Record appends one measured round.
func (l *Log) Record(r Round, at time.Time, latency time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples = append(l.samples, Sample{Round: r, At: at, Latency: latency, OK: ok})
}

// Samples returns a copy of the recorded samples.
func (l *Log) Samples() []Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Sample(nil), l.samples...)
}

// Corpus is the provider-side collection of submitted feedback logs plus
// the concurrent-user time series the live system tracks.
type Corpus struct {
	mu sync.Mutex
	// logs holds each submitted log's samples, in submission order, as a
	// view of the log's own slice capped at its length at submission. A
	// Log only ever appends, so the samples a view covers never change,
	// and an append that follows writes past the view or into a new
	// array.
	logs      [][]Sample
	n         int // samples over all views
	userTimes []time.Time
	userCount []int
}

// NewCorpus creates an empty corpus.
func NewCorpus() *Corpus { return &Corpus{} }

// Submit ingests one client's feedback log: the samples it holds now,
// without copying them.
func (c *Corpus) Submit(l *Log) {
	l.mu.Lock()
	s := l.samples[:len(l.samples):len(l.samples)]
	l.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logs = append(c.logs, s)
	c.n += len(s)
}

// each calls f on every ingested sample in submission order. c.mu must
// be held.
func (c *Corpus) each(f func(s Sample)) {
	for _, l := range c.logs {
		for _, s := range l {
			f(s)
		}
	}
}

// RecordUsers appends one concurrent-user observation.
func (c *Corpus) RecordUsers(at time.Time, users int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.userTimes = append(c.userTimes, at)
	c.userCount = append(c.userCount, users)
}

// Logs reports how many feedback logs were submitted.
func (c *Corpus) Logs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.logs)
}

// Samples returns a copy of all ingested samples, in submission order.
func (c *Corpus) Samples() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Sample, 0, c.n)
	for _, l := range c.logs {
		out = append(out, l...)
	}
	return out
}

// Len reports total ingested samples.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// HourlyPoint is one Fig. 5 x-position: an hour of the trace.
type HourlyPoint struct {
	Hour    int // hours since trace start
	Median  time.Duration
	Samples int
	Users   float64 // mean concurrent users during the hour
}

// Hourly buckets the corpus into per-hour medians for one round, paired
// with the mean concurrent-user count of each hour, over [start,
// start+hours).
func (c *Corpus) Hourly(r Round, start time.Time, hours int) []HourlyPoint {
	c.mu.Lock()
	defer c.mu.Unlock()

	lat := make([][]time.Duration, hours)
	c.each(func(s Sample) {
		if s.Round != r || !s.OK {
			return
		}
		h := int(s.At.Sub(start) / time.Hour)
		if h < 0 || h >= hours {
			return
		}
		lat[h] = append(lat[h], s.Latency)
	})
	userSum := make([]float64, hours)
	userN := make([]int, hours)
	for i, at := range c.userTimes {
		h := int(at.Sub(start) / time.Hour)
		if h < 0 || h >= hours {
			continue
		}
		userSum[h] += float64(c.userCount[i])
		userN[h]++
	}
	out := make([]HourlyPoint, hours)
	for h := 0; h < hours; h++ {
		p := HourlyPoint{Hour: h, Samples: len(lat[h])}
		p.Median = Median(lat[h])
		if userN[h] > 0 {
			p.Users = userSum[h] / float64(userN[h])
		}
		out[h] = p
	}
	return out
}

// Latencies extracts the successful latencies of one round whose
// hour-of-day (relative to start) lies in [fromHour, toHour) — used to
// split peak (18–24) from off-peak (0–18) for Fig. 6.
func (c *Corpus) Latencies(r Round, start time.Time, fromHour, toHour int) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []time.Duration
	c.each(func(s Sample) {
		if s.Round != r || !s.OK {
			return
		}
		hod := int(s.At.Sub(start)/time.Hour) % 24
		if hod < 0 {
			return
		}
		if hod >= fromHour && hod < toHour {
			out = append(out, s.Latency)
		}
	})
	return out
}

// Median returns the median duration (0 for empty input).
func Median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank.
func Quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// CDFPoint is one (x, P[latency ≤ x]) pair.
type CDFPoint struct {
	X time.Duration
	P float64
}

// CDF computes the empirical CDF of d at steps evenly spaced points over
// [0, max].
func CDF(d []time.Duration, max time.Duration, steps int) []CDFPoint {
	if steps < 2 {
		steps = 2
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := make([]CDFPoint, 0, steps)
	for i := 0; i < steps; i++ {
		x := time.Duration(int64(max) * int64(i) / int64(steps-1))
		n := sort.Search(len(s), func(j int) bool { return s[j] > x })
		p := 0.0
		if len(s) > 0 {
			p = float64(n) / float64(len(s))
		}
		out = append(out, CDFPoint{X: x, P: p})
	}
	return out
}

// pearson computes the pearson product-moment correlation coefficient of
// two equal-length series (NaN-free: returns 0 when either variance is
// zero or inputs are too short).
func pearson(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// PearsonHourly correlates per-hour median latency with per-hour mean
// concurrent users, skipping hours without samples (the paper's
// "statistically insignificant samples" occur 0AM–6AM).
func PearsonHourly(points []HourlyPoint) float64 {
	var lat, users []float64
	for _, p := range points {
		if p.Samples == 0 {
			continue
		}
		lat = append(lat, float64(p.Median))
		users = append(users, p.Users)
	}
	return pearson(lat, users)
}

// MaxAbsCDFGap returns the maximum vertical distance between two CDFs
// over shared x points (a Kolmogorov–Smirnov-style statistic quantifying
// Fig. 6's "virtually identical" claim).
func MaxAbsCDFGap(a, b []CDFPoint) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	gap := 0.0
	for i := 0; i < n; i++ {
		d := math.Abs(a[i].P - b[i].P)
		if d > gap {
			gap = d
		}
	}
	return gap
}

package obs

import (
	"bufio"
	"encoding/csv"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"p2pdrm/internal/sim"
)

// RowSink consumes sampled rows as they are produced, letting week-long
// traces stream to disk instead of growing the heap. Start is called
// once with the final column schema (sorted) before the first Row;
// columns registered after that point are dropped from the stream.
// Sinks are flushed after every row — the sampler ticks on the sim
// clock, so flushes follow virtual-time cadence, not wall time.
type RowSink interface {
	Start(cols []string) error
	Row(t time.Time, cols []string, vals []float64) error
	Flush() error
}

// Series is an append-only sequence of rows stored columnar: one flat
// row-major float64 slab plus per-row timestamps, with NaN marking a
// column missing from a row (NaN is reserved — sources must not emit
// it as data). Rows are appended in virtual-time order (the sampler
// ticks on scheduled events), so exports are sorted by construction.
//
// With a sink attached (Stream), rows pass straight through to the
// sink and are NOT retained: memory stays bounded for arbitrarily long
// runs.
type Series struct {
	mu     sync.Mutex
	cols   []string       // registration order
	colIdx map[string]int // name → cols index
	times  []int64        // retained rows: UnixNano per row
	data   []float64      // retained rows: row-major, stride len(cols)
	cur    []float64      // in-progress row, aligned to cols
	curT   int64
	inRow  bool
	total  int // rows ever appended (retained + streamed)
	setFn  func(string, float64)

	sink        RowSink
	sinkStarted bool
	sinkNames   []string // schema locked at first streamed row (sorted)
	sinkIdx     []int    // cols index per schema position
	sinkBuf     []float64
	sinkErr     error
}

func (s *Series) addColLocked(name string) int {
	idx := len(s.cols)
	s.cols = append(s.cols, name)
	s.colIdx[name] = idx
	s.cur = append(s.cur, math.NaN())
	// Re-stride retained rows for the wider schema (rare: the column
	// set stabilizes after the first ticks).
	if n := len(s.times); n > 0 {
		old := s.data
		s.data = make([]float64, 0, n*(idx+1))
		for r := 0; r < n; r++ {
			s.data = append(s.data, old[r*idx:(r+1)*idx]...)
			s.data = append(s.data, math.NaN())
		}
	}
	return idx
}

func (s *Series) beginLocked(t time.Time) {
	if s.colIdx == nil {
		s.colIdx = make(map[string]int)
	}
	if s.setFn == nil {
		s.setFn = func(col string, v float64) { s.setLocked(col, v) }
	}
	for i := range s.cur {
		s.cur[i] = math.NaN()
	}
	s.curT = t.UnixNano()
	s.inRow = true
}

func (s *Series) setLocked(col string, v float64) {
	idx, ok := s.colIdx[col]
	if !ok {
		idx = s.addColLocked(col)
	}
	if s.inRow {
		s.cur[idx] = v
	}
}

func (s *Series) endLocked() {
	s.inRow = false
	s.total++
	if s.sink != nil {
		s.emitLocked()
		return
	}
	s.times = append(s.times, s.curT)
	s.data = append(s.data, s.cur...)
}

// emitLocked streams the current row to the sink, locking the schema on
// first use.
func (s *Series) emitLocked() {
	if s.sinkErr != nil {
		return
	}
	if !s.sinkStarted {
		s.sinkNames = append([]string(nil), s.cols...)
		sort.Strings(s.sinkNames)
		s.sinkIdx = make([]int, len(s.sinkNames))
		for i, n := range s.sinkNames {
			s.sinkIdx[i] = s.colIdx[n]
		}
		s.sinkBuf = make([]float64, len(s.sinkNames))
		if err := s.sink.Start(s.sinkNames); err != nil {
			s.sinkErr = err
			return
		}
		s.sinkStarted = true
	}
	for i, idx := range s.sinkIdx {
		s.sinkBuf[i] = s.cur[idx]
	}
	t := time.Unix(0, s.curT).UTC()
	if err := s.sink.Row(t, s.sinkNames, s.sinkBuf); err != nil {
		s.sinkErr = err
		return
	}
	s.sinkErr = s.sink.Flush()
}

// stream attaches a sink: rows already retained are flushed through it
// (locking the schema to the columns seen so far) and dropped, and
// every subsequent row streams without being retained. Register all
// sources before the first streamed row — later columns are not part
// of the sink schema.
func (s *Series) stream(sink RowSink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
	if s.colIdx == nil {
		s.colIdx = make(map[string]int)
	}
	stride := len(s.cols)
	saveT, saveCur := s.curT, append([]float64(nil), s.cur...)
	for r, tn := range s.times {
		s.curT = tn
		copy(s.cur, s.data[r*stride:(r+1)*stride])
		s.emitLocked()
	}
	s.curT = saveT
	copy(s.cur, saveCur)
	s.times, s.data = nil, nil
}

// SinkErr reports the first error the attached sink returned (nil when
// not streaming or healthy).
func (s *Series) SinkErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinkErr
}

// Len returns the number of rows ever appended, retained or streamed
// (nil-safe).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// WriteCSV writes the retained rows with a leading RFC-3339 "time"
// column followed by the sorted column union; missing values render
// empty. Output bytes are a pure function of the rows. For runs too
// long to retain, attach NewCSVSink via Stream instead.
func (s *Series) WriteCSV(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	stride := len(s.cols)
	perm := make([]int, stride) // sorted position → cols index
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return s.cols[perm[i]] < s.cols[perm[j]] })
	cw := csv.NewWriter(w)
	header := make([]string, stride+1)
	header[0] = "time"
	for i, c := range perm {
		header[i+1] = s.cols[c]
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for r, tn := range s.times {
		rec[0] = time.Unix(0, tn).UTC().Format(time.RFC3339)
		row := s.data[r*stride : (r+1)*stride]
		for i, c := range perm {
			if v := row[c]; !math.IsNaN(v) {
				rec[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
			} else {
				rec[i+1] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvSink streams rows as CSV: the same shape WriteCSV produces, but
// incremental and bounded-memory.
type csvSink struct {
	cw  *csv.Writer
	rec []string
}

// NewCSVSink creates a CSV sink over w.
func NewCSVSink(w io.Writer) RowSink { return &csvSink{cw: csv.NewWriter(w)} }

// Start writes the header row.
func (c *csvSink) Start(cols []string) error {
	c.rec = make([]string, len(cols)+1)
	c.rec[0] = "time"
	copy(c.rec[1:], cols)
	return c.cw.Write(c.rec)
}

// Row writes one record.
func (c *csvSink) Row(t time.Time, cols []string, vals []float64) error {
	c.rec[0] = t.Format(time.RFC3339)
	for i, v := range vals {
		if !math.IsNaN(v) {
			c.rec[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
		} else {
			c.rec[i+1] = ""
		}
	}
	return c.cw.Write(c.rec)
}

// Flush forwards buffered records to the underlying writer.
func (c *csvSink) Flush() error {
	c.cw.Flush()
	return c.cw.Error()
}

// jsonlSink streams rows as JSON Lines: one object per row with a
// "time" field plus one field per present column (missing columns are
// omitted, so no schema padding). Encoding is hand-rolled and
// deterministic — keys follow the sorted sink schema.
type jsonlSink struct {
	bw  *bufio.Writer
	buf []byte
}

// NewJSONLSink creates a JSONL sink over w.
func NewJSONLSink(w io.Writer) RowSink { return &jsonlSink{bw: bufio.NewWriter(w)} }

// Start is a no-op: JSONL needs no header.
func (j *jsonlSink) Start(cols []string) error { return nil }

// Row writes one line.
func (j *jsonlSink) Row(t time.Time, cols []string, vals []float64) error {
	b := j.buf[:0]
	b = append(b, `{"time":"`...)
	b = t.AppendFormat(b, time.RFC3339)
	b = append(b, '"')
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		b = append(b, ',')
		b = strconv.AppendQuote(b, cols[i])
		b = append(b, ':')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, '}', '\n')
	j.buf = b
	_, err := j.bw.Write(b)
	return err
}

// Flush drains the buffered writer.
func (j *jsonlSink) Flush() error { return j.bw.Flush() }

// multiSink fans one row stream out to several sinks (e.g. CSV and
// JSONL exports of the same run). The first error stops the fan-out.
type multiSink []RowSink

// MultiSink combines sinks into one. A single sink is returned as-is.
func MultiSink(sinks ...RowSink) RowSink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return multiSink(sinks)
}

func (m multiSink) Start(cols []string) error {
	for _, s := range m {
		if err := s.Start(cols); err != nil {
			return err
		}
	}
	return nil
}

func (m multiSink) Row(t time.Time, cols []string, vals []float64) error {
	for _, s := range m {
		if err := s.Row(t, cols, vals); err != nil {
			return err
		}
	}
	return nil
}

func (m multiSink) Flush() error {
	for _, s := range m {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Source contributes columns to a sample: it is called once per tick
// with an add(column, value) sink. Sources must read only state that
// is safe to read from a scheduler event (atomics, mutex-guarded
// snapshots) and must not draw randomness or advance virtual time.
type Source func(add func(col string, v float64))

// Sampler periodically snapshots its sources into a Series on the
// simulation clock. Ticks are ordinary scheduled events at fixed
// intervals: they consume no randomness and run no handler code, so a
// run with the sampler enabled is byte-identical (scheduling-wise) to
// one without — the golden determinism fingerprints do not change.
//
// A tick is allocation free: sources write through the series' column
// index straight into the columnar row, with no per-tick sources copy
// and no per-row map.
type Sampler struct {
	every   time.Duration
	series  Series
	mu      sync.Mutex
	sources []Source
}

// NewSampler creates a sampler with the given tick interval.
func NewSampler(every time.Duration) *Sampler {
	return &Sampler{every: every}
}

// AddSource registers a source. Sources run in registration order;
// duplicate columns keep the last value written.
func (sp *Sampler) AddSource(src Source) {
	sp.mu.Lock()
	sp.sources = append(sp.sources, src)
	sp.mu.Unlock()
}

// Series exposes the collected rows.
func (sp *Sampler) Series() *Series { return &sp.series }

// Stream attaches a sink to the sampler's series (see Series.Stream).
func (sp *Sampler) Stream(sink RowSink) { sp.series.stream(sink) }

// Sample takes one sample now (also used by Run's scheduled ticks).
func (sp *Sampler) Sample(now time.Time) {
	sp.mu.Lock()
	s := &sp.series
	s.mu.Lock()
	s.beginLocked(now)
	for _, src := range sp.sources {
		src(s.setFn)
	}
	s.endLocked()
	s.mu.Unlock()
	sp.mu.Unlock()
}

// Run schedules sampling ticks every interval until (and including)
// the `until` instant. It must be called before sched.Run/RunUntil;
// the first tick fires one interval after the current virtual time.
func (sp *Sampler) Run(sched *sim.Scheduler, until time.Time) {
	if sp == nil || sp.every <= 0 {
		return
	}
	var tick func()
	tick = func() {
		now := sched.Now()
		sp.Sample(now)
		next := now.Add(sp.every)
		if next.After(until) {
			return
		}
		sched.At(next, tick)
	}
	first := sched.Now().Add(sp.every)
	if first.After(until) {
		return
	}
	sched.At(first, tick)
}

package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed call: its layer name, interval, the span that
// caused it (0 for a request's root), the request it belongs to, and
// the CPU time the call used (0 where it was not measured: a request's
// round trip shares the machine with other requests).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	epoch     time.Time
	clockCost int64 // CPU one read of the process CPU clock adds to a span
	mu        sync.Mutex
	spans     []span
	reqs      int64
}

func newRecorder() *recorder {
	costs := make([]float64, 101)
	for i := range costs {
		c0 := cpuTime(clockProcess)
		costs[i] = float64(cpuTime(clockProcess) - c0)
	}
	return &recorder{epoch: time.Now(), clockCost: int64(median(costs))}
}

// request returns a fresh request id.
func (r *recorder) request() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// add records the call name of request req that ran from start to end
// under parent, using cpu nanoseconds of CPU, and returns its span id.
func (r *recorder) add(req, parent int64, name string, start, end time.Time, cpu int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), CPU: cpu})
	return id
}

// timed runs f and records it as a span, returning the span id. Its
// CPU is the whole process's, so f must run while nothing else does;
// that way the goroutines f starts are counted too.
func (r *recorder) timed(req, parent int64, name string, f func()) int64 {
	start := time.Now()
	cpu := r.cpuOf(f)
	return r.add(req, parent, name, start, time.Now(), cpu)
}

// cpuOf runs f and returns the process CPU it used, less what reading
// the clock costs.
func (r *recorder) cpuOf(f func()) int64 {
	c0 := cpuTime(clockProcess)
	f()
	return max(0, cpuTime(clockProcess)-c0-r.clockCost)
}

// clockProcess is CLOCK_PROCESS_CPUTIME_ID, the CPU time of every
// thread of the process.
const clockProcess = 2

// cpuTime reads a CPU-time clock in nanoseconds.
func cpuTime(clock uintptr) int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// selfTime is the part of a span its children do not account for.
type selfTime struct {
	wall int64 // duration minus the union of the children's intervals
	cpu  int64 // CPU minus the children's summed CPU
}

// selfTimes returns each span's self time. Children that ran
// concurrently (a fan-out) overlap in time, so their wall time is
// subtracted as the union of their intervals, never twice; their CPU
// adds up. A child replayed apart from its parent can outlast it,
// which leaves a negative self time.
func selfTimes(spans []span) map[int64]selfTime {
	children := map[int64][][2]int64{}
	childCPU := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			childCPU[s.Parent] += s.CPU
		}
	}
	self := make(map[int64]selfTime, len(spans))
	for _, s := range spans {
		self[s.ID] = selfTime{wall: s.dur() - unionLen(children[s.ID]), cpu: s.CPU - childCPU[s.ID]}
	}
	return self
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	var lo, hi int64
	for i, x := range iv {
		switch {
		case i == 0:
			lo, hi = x[0], x[1]
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	if len(iv) > 0 {
		total += hi - lo
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

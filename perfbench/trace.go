package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's exported
// function. Spans of one request share Req; Parent links a span to the
// span that caused it (a replayed layer call to the request's
// eas.invoke span), or is -1 for a root.
type span struct {
	Name       string
	Req        int64
	Parent     int32
	Start, End int64 // ns since the recorder's epoch
}

// recorder keeps one goroutine's spans in memory until the run ends. A
// nil *recorder records nothing, so untraced runs pay one nil check per
// boundary.
type recorder struct {
	epoch time.Time
	tid   int
	spans []span
}

func newRecorder(epoch time.Time, tid int) *recorder {
	return &recorder{epoch: epoch, tid: tid}
}

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string, req int64, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(r.epoch)), End: -1})
	return int32(len(r.spans) - 1)
}

// end closes the span begin returned.
func (r *recorder) end(h int32) {
	if r == nil {
		return
	}
	r.spans[h].End = int64(time.Since(r.epoch))
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// A child that ran outside its parent's interval (a replayed layer call
// made after the request returned) covers nothing.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		ivs = ivs[:0]
		for _, c := range kids {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// layerTotals sums self time and call counts per span name.
type layerTotals struct {
	calls  map[string]int64
	selfNS map[string]int64
	// invokes and unattributedNS account the eas.invoke spans: each
	// request's invoke duration minus the self times of the layer
	// calls replayed for it, which attributedNS sums per layer.
	invokes        int64
	invokeNS       int64
	unattributedNS int64
	attributedNS   map[string]int64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{calls: map[string]int64{}, selfNS: map[string]int64{}, attributedNS: map[string]int64{}}
}

// add folds one recorder's spans into the totals.
func (t *layerTotals) add(spans []span) {
	self := selfTimes(spans)
	attributed := make(map[int32]int64)
	for i, s := range spans {
		t.calls[s.Name]++
		t.selfNS[s.Name] += self[i]
		if s.Parent >= 0 && spans[s.Parent].Name == spanInvoke {
			attributed[s.Parent] += self[i]
			t.attributedNS[s.Name] += self[i]
		}
	}
	for i, s := range spans {
		if s.Name != spanInvoke {
			continue
		}
		d := s.End - s.Start
		t.invokes++
		t.invokeNS += d
		t.unattributedNS += d - attributed[int32(i)]
	}
}

// perCall returns the mean self time of one call of the named layer,
// and whether any call was recorded.
func (t *layerTotals) perCall(name string) (float64, bool) {
	n := t.calls[name]
	if n == 0 {
		return 0, false
	}
	return float64(t.selfNS[name]) / float64(n), true
}

// writeChromeTrace writes every recorder's spans as Chrome trace-event
// JSON (load it in Perfetto or chrome://tracing): one track per
// recording goroutine, each event carrying its request id.
func writeChromeTrace(w io.Writer, recs []*recorder) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	for _, r := range recs {
		for _, s := range r.spans {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%d}}",
				s.Name, r.tid, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Req, s.Parent)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

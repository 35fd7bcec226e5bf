package main

import (
	"bufio"
	"fmt"
	"os"
)

// Spans are recorded from the benchmark's own files, around the calls
// it makes into each layer; the program under test records none.

type spanKind uint8

const (
	spanNone spanKind = iota
	// spanWindow runs from the due time of the event that completes a
	// window to that window's estimate callback.
	spanWindow
	spanSend    // monitor.Client.SendDatapoint
	spanHandle  // the StreamHandler wrapper around Service.HandleDatapoint
	spanPush    // serve.Session.Push
	spanCycle   // one retrain cycle: Update start to first estimate by the new model
	spanUpdate  // core.Pipeline.Update
	spanSave    // modelio.SaveWithMeta
	spanPublish // registry.Client.Publish
	spanRefresh // serve.Service.Refresh through HTTPModelSource
	spanFirst   // Refresh returned to first estimate by the new model
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"none", "window", "monitor.send", "serve.handle", "serve.push",
	"retrain.cycle", "core.update", "modelio.save", "registry.publish", "serve.refresh", "retrain.first_estimate",
}

// span is one timed call. Spans of one window share (stream, win). A
// span's parent is the span of kind parent on the same stream with the
// same win when parent is spanWindow or spanCycle, else with the same
// seq.
type span struct {
	kind, parent spanKind
	stream       int32
	seq          int32 // datapoint number in the stream, or cycle number
	win          int32 // window number in the stream, or cycle number
	start, end   int64 // ns on the phase clock
}

// spanBuf is a preallocated span buffer owned by one goroutine; spans
// past its capacity are counted, not stored.
type spanBuf struct {
	spans   []span
	dropped int
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: offHeap[span](capacity)[:0]} }

func (b *spanBuf) add(s span) {
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, s)
		return
	}
	b.dropped++
}

type spanKey struct {
	kind   spanKind
	stream int32
	n      int32
}

func windowLevel(k spanKind) bool { return k == spanWindow || k == spanCycle }

func (s *span) key() spanKey {
	if windowLevel(s.kind) {
		return spanKey{s.kind, s.stream, s.win}
	}
	return spanKey{s.kind, s.stream, s.seq}
}

func (s *span) parentKey() spanKey {
	if windowLevel(s.parent) {
		return spanKey{s.parent, s.stream, s.win}
	}
	return spanKey{s.parent, s.stream, s.seq}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are
// counted once). Children need not lie inside the parent: a handler
// span caused by a send may outlast it, and only the overlap counts.
func selfTimes(spans []span) []int64 {
	index := make(map[spanKey]int, len(spans))
	for i := range spans {
		index[spans[i].key()] = i
	}
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for i := range spans {
		c := &spans[i]
		if c.parent == spanNone {
			continue
		}
		p, ok := index[c.parentKey()]
		if !ok || p == i {
			continue
		}
		lo, hi := c.start, c.end
		if lo < spans[p].start {
			lo = spans[p].start
		}
		if hi > spans[p].end {
			hi = spans[p].end
		}
		if hi > lo {
			children[p] = append(children[p], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
		ivs := children[i]
		// Few children per span: insertion sort by start, then sweep.
		for a := 1; a < len(ivs); a++ {
			for b := a; b > 0 && ivs[b].lo < ivs[b-1].lo; b-- {
				ivs[b], ivs[b-1] = ivs[b-1], ivs[b]
			}
		}
		var covered, reach int64
		for n, v := range ivs {
			if n == 0 || v.lo > reach {
				covered += v.hi - v.lo
				reach = v.hi
			} else if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] -= covered
	}
	return self
}

// kindStats sums one span kind.
type kindStats struct {
	count       int
	total, self int64
	durs        []float64
}

func summarize(spans []span) [numSpanKinds]kindStats {
	var out [numSpanKinds]kindStats
	self := selfTimes(spans)
	for i := range spans {
		k := &out[spans[i].kind]
		k.count++
		d := spans[i].end - spans[i].start
		k.total += d
		k.self += self[i]
		k.durs = append(k.durs, float64(d))
	}
	return out
}

// perCall is the mean duration of a kind's spans in ns, 0 with none.
func (k *kindStats) perCall() float64 {
	if k.count == 0 {
		return 0
	}
	return float64(k.total) / float64(k.count)
}

// writeSpans writes spans as JSON lines, after the clock has stopped.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, "{\"name\":%q,\"parent\":%q,\"stream\":%d,\"seq\":%d,\"win\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			spanNames[s.kind], spanNames[s.parent], s.stream, s.seq, s.win, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

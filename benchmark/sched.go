package main

import "time"

// minSleep is the shortest wait the pacer asks for. A shorter sleep
// costs as much CPU as a longer one; the generator must not spin
// instead, because its CPU time is part of cpu_us_per_dp.
//
// On Linux a time.Sleep in a process with an idle P lasts 1.07 ms at
// least, however short it was asked to be: the runtime parks the idle P
// in epoll_wait, whose timeout counts in milliseconds. A paced
// generator therefore releases its datapoints a millisecond's worth at
// a time and every latency carries up to a millisecond of the
// generator's own (gen.late_p95_us says how much). Two ways round it
// were measured on fleet-serve and are worse: a blocking nanosleep(2)
// keeps the generator's P until sysmon takes it away (est_latency p95
// 6 ms instead of 2), and a timerfd read through the network poller is
// only noticed once a P runs out of work (p95 3.5 ms, and a tenth more
// CPU per datapoint from the smaller batches).
const minSleep = 100 * time.Microsecond

// pacer is an open-loop schedule: operation i is due i*interval after
// the start, whatever the system under test does. An operation is never
// released before it is due; how long after is its lateness, which the
// pacer samples every time it reads the clock.
type pacer struct {
	interval float64 // ns between operations
	clock    func() int64
	sleep    func(time.Duration)
	now      int64   // last clock reading
	late     []int64 // sampled lateness, ns
}

func newPacer(perSecond float64, start time.Time) *pacer {
	return &pacer{
		interval: 1e9 / perSecond,
		clock:    func() int64 { return int64(time.Since(start)) },
		sleep:    time.Sleep,
		late:     make([]int64, 0, 1<<18),
	}
}

// due is when operation i is due, in ns after the start.
func (p *pacer) due(i int64) int64 { return int64(float64(i) * p.interval) }

// wait blocks until operation i is due and returns its due time. While
// the generator is behind schedule wait returns at once, reading the
// clock only every 64th call.
func (p *pacer) wait(i int64) int64 {
	due := p.due(i)
	switch {
	case due > p.now:
		p.now = p.clock()
		for due > p.now {
			d := time.Duration(due - p.now)
			if d < minSleep {
				d = minSleep
			}
			p.sleep(d)
			p.now = p.clock()
		}
	case i&63 == 0:
		p.now = p.clock()
	default:
		return due
	}
	if len(p.late) < cap(p.late) {
		p.late = append(p.late, p.now-due)
	}
	return due
}

package collective

// Program passes: program -> program rewrites that compile applies to
// what a family's compiler built, before the program is finished. A
// pass changes how a program moves its bytes, never what it delivers:
// the walks that already run every plan (Check, Verify, Messages) prove
// it.

import (
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
)

// pipeline splits every block into s byte spans (buffers.SplitSpans)
// that stream through the first run of exchange steps of a one-role
// program one merged round apart: lane seg of merged round t carries
// span seg of round t-seg, the live lanes sharing the ports of one
// exchange, so the run takes costmodel.PipelinedC1(rounds, s) rounds.
// The steps around the run are kept. s is clamped to the block size and
// the run's length; at 1 or under the program is returned as it is and
// nothing is allocated. It returns the program and the segment count
// applied, 0 for none. Two rounds of the run with one offset would put
// two lanes on one partner, which Check reports; the Bruck tables have
// none.
func pipeline(pr *program, s int) (*program, int) {
	if len(pr.roles) != 1 {
		return pr, 0
	}
	steps := pr.roles[0].steps
	first := 0
	for first < len(steps) && steps[first].kind != stepExchange {
		first++
	}
	last := first
	for last < len(steps) && steps[last].kind == stepExchange {
		last++
	}
	rounds := steps[first:last]
	if s = min(s, pr.bl, len(rounds)); s <= 1 {
		return pr, 0
	}
	merged := costmodel.PipelinedC1(len(rounds), s)
	b := newBuilder(len(steps)-len(rounds)+merged, 0, 0)
	b.steps = append(b.steps, steps[:first]...)
	spans := buffers.SplitSpans(pr.bl, s)
	cut := func(es []extent, span buffers.Span) []extent {
		es = b.ext(es...)
		for i := range es {
			es[i].off, es[i].len = int32(span.Off), int32(span.Len)
		}
		return es
	}
	for t := 0; t < merged; t++ {
		lo, hi := max(0, t-len(rounds)+1), min(t, s-1)
		for seg := lo; seg <= hi; seg++ {
			for _, x := range rounds[t-seg].xfers {
				b.xfers = append(b.xfers, xfer{to: x.to, from: x.from, combine: x.combine, ref: x.ref,
					send: cut(x.send, spans[seg]), recv: cut(x.recv, spans[seg])})
			}
		}
		b.exchange(rounds[t-lo].phase, hi-lo+1)
	}
	out := *pr
	out.roles = []role{{steps: append(b.steps, steps[last:]...), scratch: pr.roles[0].scratch}}
	return &out, s
}

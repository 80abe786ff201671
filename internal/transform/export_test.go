package transform

// RecordedSpans returns the phase-1 register spans the pass recorded for
// the function it transformed last, as (register, first item, last item).
func RecordedSpans(p *Pass) [][3]int {
	out := make([][3]int, len(p.c.spans))
	for i, sp := range p.c.spans {
		out[i] = [3]int{sp.reg, sp.first, sp.last}
	}
	return out
}

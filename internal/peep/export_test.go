package peep

// ScanRender scans src into records and renders them with no rule
// applied: the optimizer's normalization of its input.
func ScanRender(src string) string {
	u := newUnit(src, vaxRules.instrs)
	defer u.free()
	return u.render()
}

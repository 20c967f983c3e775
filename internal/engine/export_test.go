package engine

// Test-only exports for the external engine_test package, whose tests
// import internal/experiments (which imports this package).

// ParseSeeds returns every spelling of the parse tests' tables: the
// round-trip inputs and canonical forms, and the refused spellings.
func ParseSeeds() []string {
	var seeds []string
	for _, c := range roundTripCases {
		seeds = append(seeds, c.in, c.want)
	}
	return append(seeds, badSpecs...)
}

// TableBits returns the widest table index the spec's components
// allocate when built: a DOLC's folded index, or a PHT's i or an HRT's h
// field.
func (s *Spec) TableBits() int {
	bits := 0
	for _, p := range []*part{&s.exit.part, &s.buf.part} {
		if d := p.dolc(); d != nil {
			bits = max(bits, d.IndexBits())
		}
		if p.kind == nil {
			continue
		}
		for i, f := range p.kind.fields {
			if f.key == "i" || f.key == "h" {
				bits = max(bits, p.vals[i])
			}
		}
	}
	return bits
}

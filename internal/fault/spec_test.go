package fault

import (
	"strings"
	"testing"
)

func TestParseSpecDisabledForms(t *testing.T) {
	for _, s := range []string{"", "off", "none", "  off  "} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if spec.Enabled() {
			t.Fatalf("ParseSpec(%q) enabled: %v", s, spec)
		}
		if got := spec.String(); got != "off" {
			t.Fatalf("ParseSpec(%q).String() = %q, want off", s, got)
		}
	}
}

func TestParseSpecPairs(t *testing.T) {
	spec, err := ParseSpec("ctr=0.001,ras=1e-2,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rate[KindCounter] != 0.001 || spec.Rate[KindRAS] != 0.01 || spec.Seed != 7 {
		t.Fatalf("parsed %+v", spec)
	}
	if spec.Rate[KindHistory] != 0 || spec.Rate[KindTTB] != 0 || spec.Rate[KindUpdate] != 0 {
		t.Fatalf("unrequested kinds enabled: %+v", spec)
	}
}

func TestParseSpecAllAndOverride(t *testing.T) {
	spec, err := ParseSpec("all=1e-3,ras=0")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		want := 1e-3
		if k == KindRAS {
			want = 0
		}
		if spec.Rate[k] != want {
			t.Fatalf("%s rate = %g, want %g", k, spec.Rate[k], want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"ctr",         // no value
		"=0.5",        // no key
		"ctr=",        // empty value
		"bogus=0.1",   // unknown kind
		"ctr=lots",    // unparseable rate
		"ctr=1.5",     // rate beyond 1
		"ctr=-0.1",    // negative rate
		"all=NaN",     // NaN rate
		"seed=-1",     // negative seed
		"seed=0x10",   // non-decimal seed
		"ctr=0.1 ras", // missing separator
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"ctr=0.001",
		"ctr=0.25,hist=0.5,ras=0.125,ttb=0.0625,upd=1",
		"hist=0.001,seed=42",
		"off",
	} {
		spec := MustSpec(s)
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", spec.String(), s, err)
		}
		if back != spec {
			t.Fatalf("round trip %q -> %v -> %v", s, spec, back)
		}
	}
}

func TestMustSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSpec accepted a bad spec")
		}
	}()
	MustSpec("ctr=2")
}

func TestSpecStringCanonicalOrder(t *testing.T) {
	// String lists kinds in spec order regardless of input order.
	spec := MustSpec("upd=0.5,ctr=0.25")
	s := spec.String()
	if strings.Index(s, "ctr") > strings.Index(s, "upd") {
		t.Fatalf("non-canonical order: %q", s)
	}
}

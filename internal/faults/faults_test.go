package faults

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseSpecExample(t *testing.T) {
	p, err := ParseSpec("link-down@1000:sw3.p2; port-stuck@100+500:sw2.p1 ;cb-shrink@2000:sw0*16;nic-stall@500+200:n5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: PortStuck, At: 100, Duration: 500, Switch: 2, Port: 1},
		{Kind: NICStall, At: 500, Duration: 200, Node: 5},
		{Kind: LinkDown, At: 1000, Switch: 3, Port: 2},
		{Kind: CBShrink, At: 2000, Switch: 0, Chunks: 16},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(p.Events), len(want))
	}
	for i := range want {
		if p.Events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, p.Events[i], want[i])
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"link-down@0:sw0.p0",
		"nic-stall@500+200:n5;link-down@1000:sw3.p2",
		"cb-shrink@2000:sw0*16;cb-shrink@2000:sw1*8",
		"port-stuck@100+500:sw2.p1;port-stuck@100:sw2.p1",
	}
	for _, s := range specs {
		p, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		q, err := ParseSpec(p.Spec())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.Spec(), err)
		}
		if q.Spec() != p.Spec() {
			t.Fatalf("%q: spec not a fixpoint: %q vs %q", s, p.Spec(), q.Spec())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"flood@10:sw0.p0",         // unknown kind
		"link-down@:sw0.p0",       // missing cycle
		"link-down@-5:sw0.p0",     // negative cycle
		"link-down@10",            // missing target
		"link-down@10:n3",         // wrong target shape
		"link-down@10+50:sw0.p0",  // link-down is permanent
		"cb-shrink@10+50:sw0*4",   // cb-shrink is permanent
		"cb-shrink@10:sw0*0",      // must remove >= 1 chunk
		"cb-shrink@10:sw0.p1",     // wrong target shape
		"nic-stall@10:sw0.p1",     // wrong target shape
		"nic-stall@10+0:n1",       // explicit zero duration
		"port-stuck@10+-3:sw0.p0", // negative duration
		"port-stuck@10:sw-1.p0",   // negative switch
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Fatalf("%q: expected parse error", s)
		}
	}
}

func TestNormalizedOrderInsensitive(t *testing.T) {
	a, err := ParseSpec("link-down@1000:sw3.p2;nic-stall@500+200:n5;link-down@1000:sw1.p0")
	if err != nil {
		t.Fatal(err)
	}
	b := Plan{Events: []Event{a.Events[2], a.Events[0], a.Events[1]}}.Normalized()
	if a.Spec() != b.Spec() {
		t.Fatalf("order-sensitive normalization: %q vs %q", a.Spec(), b.Spec())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p, err := ParseSpec("link-down@1000:sw3.p2;port-stuck@100+500:sw2.p1;nic-stall@500+200:n5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	// Kinds travel as spec names, not opaque numbers.
	if !strings.Contains(string(b), `"kind":"link-down"`) {
		t.Fatalf("kind not encoded by name: %s", b)
	}
	var q Plan
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	if q.Spec() != p.Spec() {
		t.Fatalf("JSON round trip changed the plan: %q vs %q", p.Spec(), q.Spec())
	}
	var bad Plan
	if err := json.Unmarshal([]byte(`{"events":[{"kind":"meteor","at":1}]}`), &bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestEmptyPlan(t *testing.T) {
	var p Plan
	if !p.Empty() || p.Spec() != "" || p.Validate() != nil {
		t.Fatal("zero plan is not the healthy run")
	}
	q, err := ParseSpec("  ;  ; ")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Empty() {
		t.Fatal("blank spec not empty")
	}
}

// FuzzFaultPlan checks that any spec the parser accepts re-renders and
// re-parses to the same canonical plan, through both encodings.
func FuzzFaultPlan(f *testing.F) {
	f.Add("link-down@1000:sw3.p2")
	f.Add("port-stuck@100+500:sw2.p1;port-stuck@100:sw2.p1")
	f.Add("cb-shrink@2000:sw0*16")
	f.Add("nic-stall@500+200:n5;link-down@0:sw0.p0")
	f.Add(" ; ;nic-stall@1:n0; ")
	f.Add("link-down@9223372036854775807:sw0.p0")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseSpec(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails validation: %v", err)
		}
		spec := p.Spec()
		q, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("rendered spec %q does not re-parse: %v", spec, err)
		}
		if q.Spec() != spec {
			t.Fatalf("spec not a fixpoint: %q vs %q", spec, q.Spec())
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var r Plan
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if r.Spec() != spec {
			t.Fatalf("JSON round trip changed the plan: %q vs %q", spec, r.Spec())
		}
	})
}

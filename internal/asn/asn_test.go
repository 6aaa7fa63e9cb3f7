package asn

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseASN(t *testing.T) {
	cases := []struct {
		in   string
		want ASN
		ok   bool
	}{
		{"AS64500", 64500, true},
		{"64500", 64500, true},
		{" AS174 ", 174, true},
		{"AS4294967295", 4294967295, true},
		{"AS4294967296", 0, false},
		{"ASX", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseASN(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseASN(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseASN(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestASNString(t *testing.T) {
	if got := ASN(3356).String(); got != "AS3356" {
		t.Errorf("String() = %q, want AS3356", got)
	}
	if !ASN(0).IsZero() || ASN(1).IsZero() {
		t.Error("IsZero misbehaves")
	}
}

func TestAddrRoundTrip(t *testing.T) {
	ip := AddrFrom4(192, 0, 2, 133)
	if ip.String() != "192.0.2.133" {
		t.Fatalf("String() = %q", ip.String())
	}
	back, err := ParseAddr(ip.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != ip {
		t.Fatalf("round trip: %v != %v", back, ip)
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixCanonical(t *testing.T) {
	p := NewPrefix(AddrFrom4(10, 1, 2, 3), 16)
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("prefix not canonicalized: %s", p)
	}
	if !p.Contains(AddrFrom4(10, 1, 255, 255)) {
		t.Error("Contains should include 10.1.255.255")
	}
	if p.Contains(AddrFrom4(10, 2, 0, 0)) {
		t.Error("Contains should exclude 10.2.0.0")
	}
}

func TestPrefixContainsPrefix(t *testing.T) {
	p8 := NewPrefix(AddrFrom4(10, 0, 0, 0), 8)
	p16 := NewPrefix(AddrFrom4(10, 9, 0, 0), 16)
	if !p8.ContainsPrefix(p16) {
		t.Error("/8 should contain its /16")
	}
	if p16.ContainsPrefix(p8) {
		t.Error("/16 must not contain its covering /8")
	}
	if !p8.ContainsPrefix(p8) {
		t.Error("prefix should contain itself")
	}
}

func TestPrefixNthWraps(t *testing.T) {
	p := NewPrefix(AddrFrom4(192, 0, 2, 0), 24)
	if got := p.Nth(5); got != AddrFrom4(192, 0, 2, 5) {
		t.Errorf("Nth(5) = %v", got)
	}
	if got := p.Nth(256 + 7); got != AddrFrom4(192, 0, 2, 7) {
		t.Errorf("Nth wrap = %v", got)
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("198.51.100.7/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "198.51.100.0/24" {
		t.Fatalf("got %s", p)
	}
	for _, s := range []string{"1.2.3.4", "1.2.3.4/33", "x/24"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixZeroLen(t *testing.T) {
	def := NewPrefix(0, 0)
	if !def.Contains(AddrFrom4(203, 0, 113, 1)) {
		t.Error("default route should contain everything")
	}
	if NewPrefix(AddrFrom4(1, 2, 3, 4), 0) != def {
		t.Error("any /0 should canonicalize to the default route")
	}
}

// Property: prefix canonicalization is idempotent and Contains(Addr) holds
// for the prefix's own network address.
func TestPrefixProperties(t *testing.T) {
	f := func(raw uint32, l uint8) bool {
		p := NewPrefix(Addr(raw), l%33)
		q := NewPrefix(p.Addr, p.Len)
		return p == q && p.Contains(p.Addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathBasics(t *testing.T) {
	p := PathFromASNs(3356, 174, 65000)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.First() != 3356 || p.Origin() != 65000 {
		t.Fatalf("First/Origin = %v/%v", p.First(), p.Origin())
	}
	if !p.Contains(174) || p.Contains(1) {
		t.Error("Contains misbehaves")
	}
	if p.String() != "3356 174 65000" {
		t.Errorf("String = %q", p.String())
	}
}

func TestPathPrependImmutable(t *testing.T) {
	p := PathFromASNs(174, 65000)
	q := p.Prepend(3356)
	if p.Len() != 2 || q.Len() != 3 {
		t.Fatalf("lens %d %d", p.Len(), q.Len())
	}
	if q.First() != 3356 || q.Origin() != 65000 {
		t.Error("prepend wrong shape")
	}
	// Mutating q's view must not affect p.
	if p.First() != 174 {
		t.Error("receiver mutated by Prepend")
	}
}

func TestPathSetSemantics(t *testing.T) {
	p := PathFromASNs(65000) // origin announcement
	poisoned := p.PrependSet([]ASN{7018, 3356}).Prepend(65000)
	// 65000 {3356,7018} 65000 — PEERING sandwich.
	if got := poisoned.String(); got != "65000 {3356,7018} 65000" {
		t.Fatalf("String = %q", got)
	}
	if poisoned.Len() != 3 { // set counts as one hop
		t.Fatalf("Len = %d", poisoned.Len())
	}
	if !poisoned.Contains(7018) {
		t.Error("set members must trigger Contains (loop prevention)")
	}
	if !poisoned.HasSet() {
		t.Error("HasSet = false")
	}
	seq := poisoned.Sequence()
	if len(seq) != 2 || seq[0] != 65000 || seq[1] != 65000 {
		t.Errorf("Sequence = %v", seq)
	}
}

func TestPathFirstOriginEdgeCases(t *testing.T) {
	var empty Path
	if empty.First() != 0 || empty.Origin() != 0 {
		t.Error("empty path accessors")
	}
	setOnly := Path{}.PrependSet([]ASN{1, 2})
	if setOnly.First() != 0 || setOnly.Origin() != 0 {
		t.Error("set-only path must report unknown first/origin")
	}
}

func TestPathEqual(t *testing.T) {
	a := PathFromASNs(1, 2, 3)
	b := PathFromASNs(1, 2, 3)
	c := PathFromASNs(1, 2, 4)
	d := PathFromASNs(1, 2)
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Equal misbehaves on sequences")
	}
	s1 := a.PrependSet([]ASN{9, 8})
	s2 := a.PrependSet([]ASN{8, 9})
	if !s1.Equal(s2) {
		t.Error("AS_SET order must be canonicalized")
	}
}

// Property: Prepend increases Len by exactly 1 and makes the prepended AS
// the First of the new path; Contains holds for every prepended AS.
func TestPathPrependProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := PathFromASNs(ASN(rng.Intn(1 << 16)))
		for i := 0; i < int(n%20); i++ {
			a := ASN(1 + rng.Intn(1<<16))
			prev := p.Len()
			p = p.Prepend(a)
			if p.Len() != prev+1 || p.First() != a || !p.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

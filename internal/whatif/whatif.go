// Package whatif is the incremental what-if engine: typed routing
// deltas — link failure, new peering, AS-path poison, origin prepend,
// LocalPref override, withdraw — applied to a copy-on-write fork of a
// frozen converged base (a bgp.Base), re-converged incrementally, and
// reported as a structured diff of changed best-path decisions instead
// of a full routing snapshot.
//
// It productizes the internal/bgp fork layer (DESIGN.md §12): a delta
// evaluation pays only the fork (O(#ASes) pointer copies) plus the
// reconvergence the delta actually causes, instead of rebuilding the
// world from scratch. The differential oracle in oracle_test.go pins
// the semantics: the fork-diff of every delta equals the diff of two
// from-scratch builds of the same before/after worlds.
//
// The package has three stages, split so the service layer can cache on
// canonical keys before paying for evaluation:
//
//	Compile  — validate a wire Delta against the sealed topology and
//	           resolve it to a Compiled delta (typed, canonicalized)
//	Canonical — the delta's canonical cache-key fragment
//	Eval     — fork the frozen base, Apply, Converge, diff
package whatif

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"routelab/internal/asn"
	"routelab/internal/bgp"
	"routelab/internal/topology"
)

// Kind names a delta type on the wire.
type Kind string

const (
	// LinkFailure takes the adjacency between ASes A and B down.
	LinkFailure Kind = "link_failure"
	// NewPeering attaches a link between non-adjacent ASes A and B; Rel
	// gives B's role from A's perspective.
	NewPeering Kind = "new_peering"
	// Poison re-announces the base prefix with the listed ASes wrapped
	// in an AS_SET sandwiched by the origin (the paper's §3.2 idiom).
	Poison Kind = "poison"
	// Prepend re-announces the base prefix with N extra copies of the
	// origin on the path.
	Prepend Kind = "prepend"
	// LocalPref overrides the local preference AS At assigns to routes
	// learned from neighbor From.
	LocalPref Kind = "local_pref"
	// Withdraw removes the origin's announcement entirely.
	Withdraw Kind = "withdraw"
)

// Kinds lists every delta kind, in documentation order.
var Kinds = []Kind{LinkFailure, NewPeering, Poison, Prepend, LocalPref, Withdraw}

// maxPrepend bounds the prepend delta; real-world prepending beyond a
// handful of copies is pathological and only inflates path memory.
const maxPrepend = 10

// maxLocalPref bounds the LocalPref override; engine policy values live
// in the hundreds.
const maxLocalPref = 1 << 20

// Delta is one what-if mutation as it appears on the wire
// (routelab-whatif/v1 request documents). Exactly the fields of its
// Kind must be set; Compile validates everything against the sealed
// topology before any computation is touched.
type Delta struct {
	Kind Kind `json:"kind"`
	// A and B name the link endpoints (link_failure, new_peering).
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Rel is B's role from A's perspective for new_peering: "customer",
	// "peer", "provider", or "sibling".
	Rel string `json:"rel,omitempty"`
	// Poisoned lists the ASes a poison delta wraps in the AS_SET.
	Poisoned []string `json:"poisoned,omitempty"`
	// Prepend is the extra origin-copy count for a prepend delta.
	Prepend int `json:"prepend,omitempty"`
	// At and From identify the adjacency of a local_pref delta: At's
	// preference for routes learned from From.
	At   string `json:"at,omitempty"`
	From string `json:"from,omitempty"`
	// Pref is the overriding local-preference value.
	Pref int `json:"pref,omitempty"`
}

// Compiled is a validated, topology-resolved delta ready to Apply. It
// is immutable after Compile and safe to share across evaluations.
type Compiled struct {
	kind      Kind
	canonical string

	a, b     asn.ASN        // link_failure endpoints
	link     *topology.Link // new_peering candidate
	poisoned []asn.ASN      // poison set, sorted ascending, deduped
	prepend  int            // prepend count
	at, from asn.ASN        // local_pref adjacency
	pref     int            // local_pref value
	origin   asn.ASN        // the base announcement's origin
}

// Canonical returns the delta's canonical form — the cache-key fragment
// the service layer namespaces responses under. Two wire deltas with
// the same meaning canonicalize identically: link endpoints are ordered
// Lo<Hi with the role re-oriented, poison sets are sorted and deduped.
func (cd *Compiled) Canonical() string { return cd.canonical }

// Compile validates one wire delta against the sealed topology and the
// base announcement's origin, and resolves it to an applicable Compiled
// delta. All validation happens here: Apply on the result cannot fail
// against the same engine and the returned error is always a client
// error (the service maps it to 400).
func Compile(d Delta, topo *topology.Topology, origin asn.ASN) (*Compiled, error) {
	cd := &Compiled{kind: d.Kind, origin: origin}
	switch d.Kind {
	case LinkFailure:
		a, b, err := parseEndpoints(topo, d.A, d.B)
		if err != nil {
			return nil, fmt.Errorf("link_failure: %w", err)
		}
		if topo.Link(a, b) == nil {
			return nil, fmt.Errorf("link_failure: %s and %s are not adjacent", a, b)
		}
		// Canonical endpoint order, so fail(a,b) and fail(b,a) share a
		// cache entry.
		if a > b {
			a, b = b, a
		}
		cd.a, cd.b = a, b
		cd.canonical = fmt.Sprintf("fail(%s,%s)", a, b)

	case NewPeering:
		a, b, err := parseEndpoints(topo, d.A, d.B)
		if err != nil {
			return nil, fmt.Errorf("new_peering: %w", err)
		}
		rel, err := parseRel(d.Rel)
		if err != nil {
			return nil, fmt.Errorf("new_peering: %w", err)
		}
		l, err := topo.ProposeLink(a, b, rel)
		if err != nil {
			return nil, fmt.Errorf("new_peering: %w", err)
		}
		cd.link = l
		cd.canonical = fmt.Sprintf("peer(%s,%s,%s)", l.Lo, l.Hi, l.HiRole)

	case Poison:
		if len(d.Poisoned) == 0 {
			return nil, fmt.Errorf("poison: empty poisoned list")
		}
		var set []asn.ASN
		for _, s := range d.Poisoned {
			a, err := asn.ParseASN(s)
			if err != nil {
				return nil, fmt.Errorf("poison: %w", err)
			}
			if topo.AS(a) == nil {
				return nil, fmt.Errorf("poison: no such AS: %s", a)
			}
			if a == origin {
				return nil, fmt.Errorf("poison: cannot poison the origin %s", a)
			}
			set = append(set, a)
		}
		slices.Sort(set)
		set = slices.Compact(set)
		cd.poisoned = set
		names := make([]string, len(set))
		for i, a := range set {
			names[i] = a.String()
		}
		cd.canonical = "poison(" + strings.Join(names, ",") + ")"

	case Prepend:
		if d.Prepend < 1 || d.Prepend > maxPrepend {
			return nil, fmt.Errorf("prepend: count %d out of range [1,%d]", d.Prepend, maxPrepend)
		}
		cd.prepend = d.Prepend
		cd.canonical = "prepend(" + strconv.Itoa(d.Prepend) + ")"

	case LocalPref:
		at, err := parseAS(topo, d.At)
		if err != nil {
			return nil, fmt.Errorf("local_pref: at: %w", err)
		}
		from, err := parseAS(topo, d.From)
		if err != nil {
			return nil, fmt.Errorf("local_pref: from: %w", err)
		}
		if topo.Link(at, from) == nil {
			return nil, fmt.Errorf("local_pref: %s and %s are not adjacent", at, from)
		}
		if d.Pref < 0 || d.Pref > maxLocalPref {
			return nil, fmt.Errorf("local_pref: pref %d out of range [0,%d]", d.Pref, maxLocalPref)
		}
		cd.at, cd.from, cd.pref = at, from, d.Pref
		cd.canonical = fmt.Sprintf("lp(%s,%s,%d)", at, from, d.Pref)

	case Withdraw:
		cd.canonical = "withdraw()"

	default:
		return nil, fmt.Errorf("unknown delta kind %q (have %v)", d.Kind, Kinds)
	}
	return cd, nil
}

// CompileAll compiles a batch, prefixing errors with the failing
// entry's index.
func CompileAll(ds []Delta, topo *topology.Topology, origin asn.ASN) ([]*Compiled, error) {
	out := make([]*Compiled, len(ds))
	for i, d := range ds {
		cd, err := Compile(d, topo, origin)
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", i, err)
		}
		out[i] = cd
	}
	return out, nil
}

// CanonicalKey joins a compiled batch into one cache-key fragment.
func CanonicalKey(cds []*Compiled) string {
	parts := make([]string, len(cds))
	for i, cd := range cds {
		parts[i] = cd.canonical
	}
	return strings.Join(parts, ";")
}

// Apply mutates c with the delta. Compile already validated everything
// against the same sealed topology, so errors are engine-state
// conflicts only (e.g. applying the same new_peering twice to one
// computation).
func (cd *Compiled) Apply(c *bgp.Computation) error {
	switch cd.kind {
	case LinkFailure:
		return c.FailLink(cd.a, cd.b)
	case NewPeering:
		return c.AddPeering(cd.link)
	case Poison:
		c.Announce(bgp.Announcement{Origin: cd.origin, Poisoned: cd.poisoned})
		return nil
	case Prepend:
		c.Announce(bgp.Announcement{Origin: cd.origin, Prepend: cd.prepend})
		return nil
	case LocalPref:
		return c.SetLocalPref(cd.at, cd.from, cd.pref)
	case Withdraw:
		c.Withdraw(cd.origin)
		return nil
	default:
		return fmt.Errorf("whatif: apply: unknown kind %q", cd.kind)
	}
}

func parseAS(topo *topology.Topology, s string) (asn.ASN, error) {
	if s == "" {
		return 0, fmt.Errorf("missing AS")
	}
	a, err := asn.ParseASN(s)
	if err != nil {
		return 0, err
	}
	if topo.AS(a) == nil {
		return 0, fmt.Errorf("no such AS: %s", a)
	}
	return a, nil
}

func parseEndpoints(topo *topology.Topology, sa, sb string) (a, b asn.ASN, err error) {
	if a, err = parseAS(topo, sa); err != nil {
		return 0, 0, fmt.Errorf("a: %w", err)
	}
	if b, err = parseAS(topo, sb); err != nil {
		return 0, 0, fmt.Errorf("b: %w", err)
	}
	return a, b, nil
}

func parseRel(s string) (topology.Rel, error) {
	switch s {
	case "customer":
		return topology.RelCustomer, nil
	case "peer":
		return topology.RelPeer, nil
	case "provider":
		return topology.RelProvider, nil
	case "sibling":
		return topology.RelSibling, nil
	default:
		return topology.RelNone, fmt.Errorf("bad rel %q (have customer, peer, provider, sibling)", s)
	}
}

package siblings

import (
	"testing"

	"routelab/internal/asn"
	"routelab/internal/dnsdb"
	"routelab/internal/registry"
	"routelab/internal/topology"
)

func TestInferGroupsByZone(t *testing.T) {
	reg := registry.New()
	dns := dnsdb.New()
	add := func(a asn.ASN, email string) {
		if err := reg.AddAS(registry.ASRecord{ASN: a, Country: "AA", Registry: registry.ARIN, Email: email}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, "noc@dish.example")
	add(2, "noc@dishaccess.example")
	add(3, "noc@unrelated.example")
	dns.AddSOA(dnsdb.SOARecord{Domain: "dish.example", Zone: "dishnetwork.example"})
	dns.AddSOA(dnsdb.SOARecord{Domain: "dishaccess.example", Zone: "dishnetwork.example"})

	g := Infer(reg, dns)
	if len(g.groupOf) != 2 {
		t.Fatalf("grouped ASes = %v, want only 1 and 2", g.groupOf)
	}
	if !g.SameOrg(1, 2) {
		t.Error("1 and 2 share a zone and must be siblings")
	}
	if g.SameOrg(1, 3) || g.SameOrg(3, 1) {
		t.Error("3 is unrelated")
	}
}

func TestFreemailExcluded(t *testing.T) {
	reg := registry.New()
	dns := dnsdb.New()
	for i, email := range []string{"a@hotmail.example", "b@hotmail.example", "c@ripe.example", "d@ripe.example"} {
		if err := reg.AddAS(registry.ASRecord{ASN: asn.ASN(i + 1), Country: "AA", Registry: registry.ARIN, Email: email}); err != nil {
			t.Fatal(err)
		}
	}
	g := Infer(reg, dns)
	if len(g.groupOf) != 0 {
		t.Fatalf("freemail/RIR-hosted contacts must not form groups, got %v", g.groupOf)
	}
	if g.SameOrg(1, 2) {
		t.Error("hotmail-hosted ASes grouped")
	}
}

func TestSameDomainWithoutSOAGroups(t *testing.T) {
	reg := registry.New()
	dns := dnsdb.New()
	for i := 1; i <= 3; i++ {
		if err := reg.AddAS(registry.ASRecord{ASN: asn.ASN(i), Country: "AA", Registry: registry.ARIN, Email: "noc@megacorp.example"}); err != nil {
			t.Fatal(err)
		}
	}
	g := Infer(reg, dns)
	if !g.SameOrg(1, 2) || !g.SameOrg(2, 3) {
		t.Error("identical contact domains must group even without SOA records")
	}
}

// On a generated topology, inferred sibling groups must be a SUBSET of
// ground-truth organizations (no false merges), and freemail-hidden
// groups must be missing (imperfect recall — the paper's situation).
func TestInferOnGeneratedTopology(t *testing.T) {
	topo := topology.Generate(17, topology.TestConfig())
	g := Infer(topo.Registry, topo.DNS)
	truth := topo.Orgs()
	orgOf := map[asn.ASN]string{}
	for org, members := range truth {
		for _, m := range members {
			orgOf[m] = string(org)
		}
	}
	// Precision: every inferred pair must share a ground-truth org.
	for a := range g.groupOf {
		for b := range g.groupOf {
			if !g.SameOrg(a, b) {
				continue
			}
			if orgOf[a] != orgOf[b] {
				t.Fatalf("false sibling merge: %s (%s) with %s (%s)", a, orgOf[a], b, orgOf[b])
			}
		}
	}
	// Recall: at least one ground-truth multi-AS org inferred, and if a
	// freemail group exists it must be missed.
	truthMulti, inferredCovered := 0, 0
	for _, members := range truth {
		if len(members) < 2 {
			continue
		}
		truthMulti++
		if g.SameOrg(members[0], members[1]) {
			inferredCovered++
		}
	}
	if truthMulti == 0 {
		t.Skip("no multi-AS orgs generated")
	}
	if inferredCovered == 0 {
		t.Error("inference recovered no sibling groups at all")
	}
	t.Logf("sibling recall: %d/%d ground-truth orgs recovered", inferredCovered, truthMulti)
}

package scenario

import (
	"math"
	"reflect"
	"strings"
)

// A Bound is the set of values a numeric Config field may hold.
type Bound int

const (
	// Count is an integer >= 0: a class size, an epoch or probe count.
	Count Bound = iota
	// Positive is an integer >= 1: a count no campaign can run with
	// none of.
	Positive
	// Rate is a probability in [0, 1].
	Rate
	// Scale is a float >= 0.
	Scale
	// Seed is any integer. A document cannot give one as a range: a
	// rolled seed would hide the thing that makes a run reproducible.
	Seed
)

// Integer reports whether the bound admits integers only.
func (b Bound) Integer() bool { return b != Rate && b != Scale }

// Check returns why v lies outside the bound, or "" when it is inside.
func (b Bound) Check(v float64) string {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return "must be a finite number"
	case b.Integer() && v != math.Trunc(v):
		return "must be an integer"
	case (b == Count || b == Scale) && v < 0:
		return "must be >= 0"
	case b == Positive && v < 1:
		return "must be >= 1"
	case b == Rate && (v < 0 || v > 1):
		return "is a probability in [0, 1]"
	}
	return ""
}

// A Field is one numeric leaf of Config: the dotted path a scenario
// document sets it by, its dotted Go path from Config (which is also
// where Set finds it), and the values it may hold.
type Field struct {
	Path   string // document path, e.g. "campaign.probes"
	GoPath string // Go path from Config, e.g. "NumProbes"
	Bound  Bound
}

// slot is the field's place in c.
func (f *Field) slot(c *Config) reflect.Value {
	v := reflect.ValueOf(c).Elem()
	for _, name := range strings.Split(f.GoPath, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// Get returns the field's value in c.
func (f *Field) Get(c *Config) float64 {
	v := f.slot(c)
	if v.CanInt() {
		return float64(v.Int())
	}
	return v.Float()
}

// Set stores v in c's field, rounded to the nearest integer for an
// integer field.
func (f *Field) Set(c *Config, v float64) {
	if s := f.slot(c); s.CanInt() {
		s.SetInt(int64(math.Round(v)))
	} else {
		s.SetFloat(v)
	}
}

// Fields lists every numeric leaf of Config exactly once, in document
// order: the top-level fields, then the topology section (class counts
// and structure), the policy section (the rates of the phenomena the
// paper investigates), the campaign section (measurement campaign
// sizing) and the measurement section (data-plane artifacts and the
// geolocation error model). Validate, the spec decoder and
// SCENARIOS.md §3 all follow it. The seed comes first, so a document's
// ranged fields are drawn from the seed it sets.
var Fields = []Field{
	{"seed", "Seed", Seed},
	{"workers", "RoutingWorkers", Count},

	{"topology.scale", "Topology.Scale", Scale},
	{"topology.tier1s", "Topology.NumTier1", Count},
	{"topology.large_isps", "Topology.NumLargeISP", Count},
	{"topology.small_isps", "Topology.NumSmallISP", Count},
	{"topology.stubs", "Topology.NumStub", Count},
	{"topology.content", "Topology.NumContent", Count},
	{"topology.cable_ops", "Topology.NumCableOps", Count},
	{"topology.content_majors", "Topology.NumContentMajors", Positive},
	{"topology.hostnames", "Topology.NumHostnames", Positive},
	{"topology.cdn_caches", "Topology.NumCDNCaches", Count},
	{"topology.sibling_groups", "Topology.SiblingGroups", Count},
	{"topology.retired_links", "Topology.RetiredLinkCount", Count},

	{"policy.sibling_freemail_rate", "Topology.SiblingFreemailRate", Rate},
	{"policy.hybrid_link_rate", "Topology.HybridLinkRate", Rate},
	{"policy.partial_transit_rate", "Topology.PartialTransitRate", Rate},
	{"policy.selective_export_rate", "Topology.SelectiveExportRate", Rate},
	{"policy.content_selective_rate", "Topology.ContentSelectiveRate", Rate},
	{"policy.cache_selective_rate", "Topology.CacheSelectiveRate", Rate},
	{"policy.domestic_bias_rate", "Topology.DomesticBiasRate", Rate},
	{"policy.content_peer_te_rate", "Topology.ContentPeerTERate", Rate},
	{"policy.as_set_filter_rate", "Topology.ASSetFilterRate", Rate},
	{"policy.no_loop_prevention_rate", "Topology.NoLoopPreventionRate", Rate},

	{"campaign.vantage_peers", "NumVantagePeers", Positive},
	{"campaign.historic_epochs", "HistoricEpochs", Count},
	{"campaign.current_epochs", "CurrentEpochs", Positive},
	{"campaign.probes", "NumProbes", Positive},
	{"campaign.traces", "TracesTarget", Positive},
	{"campaign.active_probes", "ActiveProbes", Count},
	{"campaign.planetlab_nodes", "PlanetLabNodes", Count},
	{"campaign.max_alternate_targets", "MaxAlternateTargets", Count},
	{"campaign.complex_coverage", "ComplexCoverage", Rate},

	{"measurement.no_reply_rate", "Traceroute.NoReplyRate", Rate},
	{"measurement.third_party_rate", "Traceroute.ThirdPartyRate", Rate},
	{"measurement.ixp_rate", "Traceroute.IXPRate", Rate},
	{"measurement.max_hops", "Traceroute.MaxHops", Count},
	{"measurement.trace_seed", "Traceroute.Seed", Seed},
	{"measurement.geo_miss_rate", "GeoDB.MissRate", Rate},
	{"measurement.geo_wrong_city_rate", "GeoDB.WrongCityRate", Rate},
	{"measurement.geo_seed", "GeoDB.Seed", Seed},
}

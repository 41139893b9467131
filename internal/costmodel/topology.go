package costmodel

// Two-level machine topologies: the generalization of the paper's
// uniform linear model to clustered machines.
//
// The paper prices every link alike — one (beta, tau) pair for the
// whole machine — which matches the SP-1's flat switch but not a
// cluster of multi-processor nodes, where links inside a node are an
// order of magnitude cheaper than links between nodes. Topology keeps
// the linear model per link but splits the machine into named
// node-groups with one profile per link class (intra-group vs
// inter-group). A communication round is priced by the
// slowest link it crosses, so a schedule that confines most rounds to
// intra-group links — the hierarchical schedules of package collective
// — beats a flat schedule whose every round pays the inter-group
// start-up.

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"
)

// LinkClass identifies the class of link a message crosses under a
// two-level Topology.
type LinkClass int

const (
	// LinkIntra: both endpoints are in the same node-group.
	LinkIntra LinkClass = iota
	// LinkInter: the endpoints are in different node-groups.
	LinkInter
)

// NumLinkClasses is the number of link classes a topology
// distinguishes.
const NumLinkClasses = 2

func (c LinkClass) String() string {
	switch c {
	case LinkIntra:
		return "intra"
	case LinkInter:
		return "inter"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// Topology describes a two-level machine: Groups[i] is the size of
// node-group i, and ranks are assigned to groups in contiguous runs
// (ranks 0..Groups[0]-1 form group 0, and so on). Links inside a group
// are priced by Intra, links between groups by Inter. The zero group
// list is invalid; use Validate before trusting a hand-built value, or
// build through NewTopology/ParseTopology which validate for you.
type Topology struct {
	Name   string
	Groups []int
	Intra  Profile
	Inter  Profile
}

// NewTopology builds and validates a topology from explicit group
// sizes.
func NewTopology(groups []int, intra, inter Profile) (*Topology, error) {
	t := &Topology{Groups: append([]int(nil), groups...), Intra: intra, Inter: inter}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate reports whether the topology is well-formed: at least one
// group, every group non-empty and both class profiles meaningful.
func (t *Topology) Validate() error {
	if t == nil {
		return fmt.Errorf("costmodel: nil topology")
	}
	if len(t.Groups) == 0 {
		return fmt.Errorf("costmodel: topology has no groups")
	}
	for i, m := range t.Groups {
		if m < 1 {
			return fmt.Errorf("costmodel: topology group %d has size %d (empty groups are invalid)", i, m)
		}
	}
	if err := t.Intra.Validate(); err != nil {
		return fmt.Errorf("costmodel: intra profile: %w", err)
	}
	if err := t.Inter.Validate(); err != nil {
		return fmt.Errorf("costmodel: inter profile: %w", err)
	}
	return nil
}

// N returns the total processor count, the sum of the group sizes.
func (t *Topology) N() int {
	n := 0
	for _, m := range t.Groups {
		n += m
	}
	return n
}

// NumGroups returns the number of node-groups.
func (t *Topology) NumGroups() int { return len(t.Groups) }

// GroupOf returns the node-group of a rank, or -1 if the rank is
// outside the machine.
func (t *Topology) GroupOf(rank int) int {
	if rank < 0 {
		return -1
	}
	for g, m := range t.Groups {
		if rank < m {
			return g
		}
		rank -= m
	}
	return -1
}

// GroupAssignment returns the rank -> group table, the form the
// simulator's per-event tagging consumes.
func (t *Topology) GroupAssignment() []int {
	out := make([]int, 0, t.N())
	for g, m := range t.Groups {
		for i := 0; i < m; i++ {
			out = append(out, g)
		}
	}
	return out
}

// Trivial reports whether the topology collapses to a flat machine:
// a single group (everything intra) or single-member groups only
// (everything inter). Hierarchical schedules degenerate to flat ones
// on trivial topologies.
func (t *Topology) Trivial() bool {
	return len(t.Groups) <= 1 || t.N() == len(t.Groups)
}

// LinkClass classifies the directed link src -> dst.
func (t *Topology) LinkClass(src, dst int) LinkClass {
	if t.GroupOf(src) == t.GroupOf(dst) {
		return LinkIntra
	}
	return LinkInter
}

// ClassProfile returns the profile pricing a link class.
func (t *Topology) ClassProfile(c LinkClass) Profile {
	if c == LinkInter {
		return t.Inter
	}
	return t.Intra
}

// LevelTime prices a hierarchical schedule's per-class measures under
// the topology: intra rounds and volume at the Intra profile plus
// inter rounds and volume at the Inter profile — the two-level form of
// T = C1*beta + C2*tau.
func (t *Topology) LevelTime(intraC1, intraC2, interC1, interC2 int) float64 {
	return t.Intra.Time(intraC1, intraC2) + t.Inter.Time(interC1, interC2)
}

// FlatTime prices a flat (topology-oblivious) schedule under the
// topology: with more than one group a flat schedule's rounds cross
// inter-group links, so every round is priced by the slowest class it
// can touch — the Inter profile; a single-group topology prices
// everything Intra.
func (t *Topology) FlatTime(c1, c2 int) float64 {
	if len(t.Groups) <= 1 {
		return t.Intra.Time(c1, c2)
	}
	return t.Inter.Time(c1, c2)
}

// Spec returns the canonical parseable group-shape string: "4x4" for
// uniform shapes, a comma-separated size list ("4,4,3") otherwise.
func (t *Topology) Spec() string {
	if len(t.Groups) == 0 {
		return ""
	}
	uniform := true
	for _, m := range t.Groups[1:] {
		if m != t.Groups[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return fmt.Sprintf("%dx%d", len(t.Groups), t.Groups[0])
	}
	parts := make([]string, len(t.Groups))
	for i, m := range t.Groups {
		parts[i] = strconv.Itoa(m)
	}
	return strings.Join(parts, ",")
}

// Digest returns a 64-bit FNV-1a fingerprint of the topology — group
// shape and both class profiles — the key under which auto-dispatch
// verdicts and plans are memoized. Like the layout digest, a hit must
// be confirmed with Equal before trusting it.
func (t *Topology) Digest() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	writeInt := func(v int) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	writeFloat := func(f float64) { writeInt(int(math.Float64bits(f))) }
	writeInt(len(t.Groups))
	for _, m := range t.Groups {
		writeInt(m)
	}
	writeFloat(t.Intra.Beta)
	writeFloat(t.Intra.Tau)
	writeFloat(t.Inter.Beta)
	writeFloat(t.Inter.Tau)
	return h.Sum64()
}

// Equal reports whether two topologies price every link identically:
// same group shape and class parameters. Names do not participate — two
// differently named but parameter-identical topologies rank every
// schedule the same way.
func (t *Topology) Equal(o *Topology) bool {
	if t == nil || o == nil {
		return t == o
	}
	return slices.Equal(t.Groups, o.Groups) &&
		t.Intra.Beta == o.Intra.Beta && t.Intra.Tau == o.Intra.Tau &&
		t.Inter.Beta == o.Inter.Beta && t.Inter.Tau == o.Inter.Tau
}

// Scaled returns p with both parameters multiplied by f, the standard
// way to derive an inter-group profile from an intra-group one ("a
// 10:1 machine").
func Scaled(p Profile, f float64) Profile {
	return Profile{
		Name: fmt.Sprintf("%s x%g", p.Name, f),
		Beta: p.Beta * f,
		Tau:  p.Tau * f,
	}
}

// DefaultInterRatio is the inter/intra cost ratio ParseTopology
// assumes when the spec names no profiles: a 10:1 machine, the shape
// where hierarchical schedules clearly pay off.
const DefaultInterRatio = 10

// ParseTopology parses the command-line topology syntax
//
//	<groups>x<size>[:beta,tau/beta,tau]
//	<size1>,<size2>,...[:beta,tau/beta,tau]
//
// for example "4x4", "4,4,3", or "2x8:29e-6,1.2e-7/2.9e-4,1.2e-6".
// The first profile pair is the intra-group link, the second the
// inter-group link; when omitted, the intra profile defaults to SP1
// and the inter profile to SP1 scaled by DefaultInterRatio.
func ParseTopology(s string) (*Topology, error) {
	shape := s
	profiles := ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		shape, profiles = s[:i], s[i+1:]
	}
	if shape == "" {
		return nil, fmt.Errorf("costmodel: empty topology spec")
	}
	var groups []int
	if i := strings.IndexByte(shape, 'x'); i >= 0 {
		g, err := strconv.Atoi(shape[:i])
		if err != nil {
			return nil, fmt.Errorf("costmodel: bad topology group count %q: %w", shape[:i], err)
		}
		m, err := strconv.Atoi(shape[i+1:])
		if err != nil {
			return nil, fmt.Errorf("costmodel: bad topology group size %q: %w", shape[i+1:], err)
		}
		if g < 1 || m < 1 {
			return nil, fmt.Errorf("costmodel: topology %q needs positive dimensions", shape)
		}
		groups = make([]int, g)
		for j := range groups {
			groups[j] = m
		}
	} else {
		for _, f := range strings.Split(shape, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("costmodel: bad topology group size %q: %w", f, err)
			}
			groups = append(groups, m)
		}
	}
	intra, inter := SP1, Scaled(SP1, DefaultInterRatio)
	if profiles != "" {
		parts := strings.Split(profiles, "/")
		if len(parts) != 2 {
			return nil, fmt.Errorf("costmodel: topology profiles %q: want intra/inter as beta,tau/beta,tau", profiles)
		}
		var err error
		if intra, err = parseProfile(parts[0], "intra"); err != nil {
			return nil, err
		}
		if inter, err = parseProfile(parts[1], "inter"); err != nil {
			return nil, err
		}
	}
	t, err := NewTopology(groups, intra, inter)
	if err != nil {
		return nil, err
	}
	t.Name = t.Spec()
	return t, nil
}

func parseProfile(s, class string) (Profile, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return Profile{}, fmt.Errorf("costmodel: topology %s profile %q: want beta,tau", class, s)
	}
	beta, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return Profile{}, fmt.Errorf("costmodel: topology %s beta %q: %w", class, parts[0], err)
	}
	tau, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return Profile{}, fmt.Errorf("costmodel: topology %s tau %q: %w", class, parts[1], err)
	}
	return Profile{Name: class, Beta: beta, Tau: tau}, nil
}

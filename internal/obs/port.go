package obs

// Kinds is a set of event kinds: bit k stands for Kind k.
type Kinds uint32

// KindsOf returns the set holding the given kinds.
func KindsOf(kinds ...Kind) Kinds {
	var s Kinds
	for _, k := range kinds {
		s |= 1 << k
	}
	return s
}

// Sets of kinds with a meaning to the simulator core.
const (
	// AllKinds is every kind: what a probe without a Kinds method consumes.
	AllKinds Kinds = 1<<numKinds - 1
	// PerCycleKinds are emitted at per-cycle rate. A probe consuming one of
	// them needs every cycle ticked, so the core's skip-ahead stays off.
	PerCycleKinds Kinds = 1<<KindCycle | 1<<KindQueueDepth
)

// Has reports whether k is in the set.
func (s Kinds) Has(k Kind) bool { return s&(1<<k) != 0 }

// Filter is a probe consuming only some kinds. The units emit nothing
// else to it when it is the attached probe. Behind a Multi it may still
// receive other kinds (the Multi fans out the union of its members' sets),
// and must ignore them.
type Filter interface {
	Probe
	Kinds() Kinds
}

// Consumes returns the kinds p consumes: none for a nil probe, its Kinds
// for a Filter, and every kind otherwise.
func Consumes(p Probe) Kinds {
	switch p := p.(type) {
	case nil:
		return 0
	case Filter:
		return p.Kinds()
	}
	return AllKinds
}

// Only restricts p to the given kinds: it forwards only those, and
// declares them as the kinds it consumes.
func Only(kinds Kinds, p Probe) Filter { return only{kinds, p} }

type only struct {
	kinds Kinds
	p     Probe
}

func (o only) Kinds() Kinds { return o.kinds }

func (o only) Event(e Event) {
	if o.kinds.Has(e.Kind) {
		o.p.Event(e)
	}
}

// Port is a unit's one observation port: the attached probe and the kinds
// it consumes. Units embed it and emit through Emit, which tests the
// event's kind bit, so an event no probe consumes costs one bit test.
type Port struct {
	probe Probe
	kinds Kinds
}

// SetProbe attaches p (nil detaches). Call before the unit's first cycle.
func (p *Port) SetProbe(pr Probe) { p.probe, p.kinds = pr, Consumes(pr) }

// Consumed returns the kinds the attached probe consumes.
func (p *Port) Consumed() Kinds { return p.kinds }

// On reports whether the attached probe consumes kind k: an emit site
// guards work done only to build its event with it.
func (p *Port) On(k Kind) bool { return p.kinds&(1<<k) != 0 }

// Emit sends e to the attached probe when the probe consumes its kind.
func (p *Port) Emit(e Event) {
	if p.kinds&(1<<e.Kind) != 0 {
		p.probe.Event(e)
	}
}

// Package arch models the target architecture of the paper: a set of
// processing elements — programmable processors, application specific
// hardware processors (ASICs), shared buses and memory modules — together
// with the time needed to broadcast a condition value (τ0).
//
// Programmable processors, buses and memory modules execute at most one
// process (respectively one transfer) at a time. A hardware processor can
// execute processes in parallel. Processes mapped to different processing
// elements execute in parallel, and computation overlaps with transfers on
// the buses.
package arch

import (
	"errors"
	"fmt"
	"math"
)

// PEID identifies a processing element within an Architecture.
type PEID int

// NoPE is the sentinel value for "not mapped" (used by the dummy source and
// sink processes).
const NoPE PEID = -1

// Kind classifies processing elements.
type Kind int

const (
	// KindProcessor is a programmable processor: it executes one process
	// at a time.
	KindProcessor Kind = iota
	// KindHardware is an ASIC: it can execute its processes in parallel.
	KindHardware
	// KindBus is a shared bus: it performs one data transfer at a time.
	KindBus
	// KindMemory is a shared memory module or port: like a bus it serves
	// one access at a time, but it is never used for condition broadcast.
	KindMemory
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindProcessor:
		return "processor"
	case KindHardware:
		return "hardware"
	case KindBus:
		return "bus"
	case KindMemory:
		return "memory"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind converts a kind name produced by Kind.String back into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "processor":
		return KindProcessor, nil
	case "hardware":
		return KindHardware, nil
	case "bus":
		return KindBus, nil
	case "memory":
		return KindMemory, nil
	default:
		return 0, fmt.Errorf("arch: unknown processing element kind %q", s)
	}
}

// PE describes one processing element.
type PE struct {
	ID   PEID
	Name string
	Kind Kind
	// Speed scales execution times of processes mapped to this element:
	// the effective execution time is ceil(base/Speed). A Speed of zero is
	// treated as 1. Buses and memories normally keep Speed == 1 because
	// transfer times are independent of processor speed.
	Speed float64
	// ConnectsAll marks a bus that reaches every processor; condition
	// values are broadcast on such buses.
	ConnectsAll bool
}

// Sequential reports whether the element executes one process at a time.
func (p *PE) Sequential() bool { return p.Kind != KindHardware }

// Architecture is a collection of processing elements plus the condition
// broadcast time τ0.
type Architecture struct {
	pes []*PE
	// CondTime is τ0, the time needed to broadcast one condition value on
	// a bus. The paper assumes it is at most as large as any communication
	// time.
	CondTime int64
}

// New returns an empty architecture with a condition broadcast time of 1.
func New() *Architecture {
	return &Architecture{CondTime: 1}
}

func (a *Architecture) add(name string, kind Kind, speed float64, connectsAll bool) PEID {
	id := PEID(len(a.pes))
	if name == "" {
		name = fmt.Sprintf("%s%d", kind.String(), int(id))
	}
	if speed <= 0 {
		speed = 1
	}
	a.pes = append(a.pes, &PE{ID: id, Name: name, Kind: kind, Speed: speed, ConnectsAll: connectsAll})
	return id
}

// AddProcessor adds a programmable processor with the given relative speed.
func (a *Architecture) AddProcessor(name string, speed float64) PEID {
	return a.add(name, KindProcessor, speed, false)
}

// AddHardware adds an ASIC (a hardware processor executing processes in
// parallel).
func (a *Architecture) AddHardware(name string) PEID {
	return a.add(name, KindHardware, 1, false)
}

// AddBus adds a shared bus. connectsAll marks buses reaching every processor;
// at least one such bus must exist for condition broadcasting.
func (a *Architecture) AddBus(name string, connectsAll bool) PEID {
	return a.add(name, KindBus, 1, connectsAll)
}

// AddMemory adds a shared memory module (a sequential resource for memory
// access processes, never used for condition broadcast).
func (a *Architecture) AddMemory(name string) PEID {
	return a.add(name, KindMemory, 1, false)
}

// SetCondTime sets τ0, the condition broadcast time.
func (a *Architecture) SetCondTime(t int64) { a.CondTime = t }

// NumPEs returns the number of processing elements.
func (a *Architecture) NumPEs() int { return len(a.pes) }

// PE returns the processing element with the given identifier, or nil when
// the identifier is out of range (including NoPE).
func (a *Architecture) PE(id PEID) *PE {
	if id < 0 || int(id) >= len(a.pes) {
		return nil
	}
	return a.pes[id]
}

// Valid reports whether the identifier names an element of this architecture.
func (a *Architecture) Valid(id PEID) bool { return a.PE(id) != nil }

// PEs returns all processing elements in identifier order.
func (a *Architecture) PEs() []*PE { return append([]*PE(nil), a.pes...) }

// ComputePEs returns processors and ASICs (the elements ordinary processes
// may be mapped to).
func (a *Architecture) ComputePEs() []PEID {
	var out []PEID
	for _, pe := range a.pes {
		if pe.Kind == KindProcessor || pe.Kind == KindHardware {
			out = append(out, pe.ID)
		}
	}
	return out
}

// Broadcasts reports whether decided condition values are broadcast: there
// is more than one processor or ASIC, and a bus connects all processors.
// With a single computation element every condition is known where it is
// decided, so nothing is broadcast. It does not allocate.
func (a *Architecture) Broadcasts() bool {
	compute, bus := 0, false
	for _, pe := range a.pes {
		switch {
		case pe.Kind == KindProcessor || pe.Kind == KindHardware:
			compute++
		case pe.Kind == KindBus && pe.ConnectsAll:
			bus = true
		}
	}
	return compute > 1 && bus
}

// BroadcastBuses returns the buses that connect all processors, ordered by
// identifier. Condition values are broadcast on the first such bus that
// becomes available.
func (a *Architecture) BroadcastBuses() []PEID { return a.AppendBroadcastBuses(nil) }

// AppendBroadcastBuses appends the BroadcastBuses to dst and returns the
// extended slice, so a caller can reuse one buffer.
func (a *Architecture) AppendBroadcastBuses(dst []PEID) []PEID {
	for _, pe := range a.pes {
		if pe.Kind == KindBus && pe.ConnectsAll {
			dst = append(dst, pe.ID)
		}
	}
	return dst
}

// IsSequential reports whether the element executes one process at a time.
// Unknown identifiers are treated as non-sequential so that the dummy source
// and sink (mapped to NoPE) never contend for resources.
func (a *Architecture) IsSequential(id PEID) bool {
	pe := a.PE(id)
	if pe == nil {
		return false
	}
	return pe.Sequential()
}

// EffectiveExec returns the execution time of a process with nominal
// execution time base when run on the given processing element, applying the
// element's speed factor and rounding up. Processes mapped to NoPE (the dummy
// source and sink) take zero time.
func (a *Architecture) EffectiveExec(base int64, id PEID) int64 {
	pe := a.PE(id)
	if pe == nil {
		return 0
	}
	if base <= 0 {
		return 0
	}
	if pe.Speed == 1 || pe.Speed <= 0 {
		return base
	}
	return int64(math.Ceil(float64(base) / pe.Speed))
}

// FindByName returns the identifier of the element with the given name.
func (a *Architecture) FindByName(name string) (PEID, bool) {
	for _, pe := range a.pes {
		if pe.Name == name {
			return pe.ID, true
		}
	}
	return NoPE, false
}

// Validate checks structural well-formedness: unique names, at least one
// computation element, and — when there is more than one computation element —
// at least one all-connecting bus for condition broadcast, plus a positive τ0.
func (a *Architecture) Validate() error {
	if len(a.ComputePEs()) == 0 {
		return errors.New("arch: architecture has no processors or hardware")
	}
	if a.CondTime <= 0 {
		return fmt.Errorf("arch: condition broadcast time must be positive, got %d", a.CondTime)
	}
	names := map[string]bool{}
	for _, pe := range a.pes {
		if names[pe.Name] {
			return fmt.Errorf("arch: duplicate processing element name %q", pe.Name)
		}
		names[pe.Name] = true
		if pe.Speed <= 0 {
			return fmt.Errorf("arch: processing element %q has non-positive speed", pe.Name)
		}
	}
	if len(a.ComputePEs()) > 1 && !a.Broadcasts() {
		return errors.New("arch: more than one computation element but no bus connecting all processors for condition broadcast")
	}
	return nil
}

// String summarises the architecture ("2 processors, 1 hardware, 1 bus, τ0=1").
func (a *Architecture) String() string {
	counts := map[Kind]int{}
	for _, pe := range a.pes {
		counts[pe.Kind]++
	}
	kinds := []Kind{KindProcessor, KindHardware, KindBus, KindMemory}
	parts := make([]string, 0, len(kinds)+1)
	for _, k := range kinds {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
		}
	}
	return fmt.Sprintf("%s, τ0=%d", joinComma(parts), a.CondTime)
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	if out == "" {
		out = "empty"
	}
	return out
}

package arch

import (
	"strings"
	"testing"
	"testing/quick"
)

func paperArch() *Architecture {
	a := New()
	a.AddProcessor("pe1", 1)
	a.AddProcessor("pe2", 1)
	a.AddHardware("pe3")
	a.AddBus("pe4", true)
	a.SetCondTime(1)
	return a
}

func TestAddAndLookup(t *testing.T) {
	a := paperArch()
	if a.NumPEs() != 4 {
		t.Fatalf("NumPEs = %d, want 4", a.NumPEs())
	}
	id, ok := a.FindByName("pe3")
	if !ok {
		t.Fatalf("FindByName(pe3) failed")
	}
	pe := a.PE(id)
	if pe == nil || pe.Kind != KindHardware || pe.Name != "pe3" {
		t.Fatalf("unexpected PE: %+v", pe)
	}
	if _, ok := a.FindByName("missing"); ok {
		t.Fatalf("FindByName should fail for unknown name")
	}
	if a.PE(NoPE) != nil {
		t.Fatalf("PE(NoPE) must be nil")
	}
	if a.PE(PEID(99)) != nil {
		t.Fatalf("PE out of range must be nil")
	}
	if !a.Valid(id) || a.Valid(NoPE) {
		t.Fatalf("Valid misbehaves")
	}
}

func TestKindGroups(t *testing.T) {
	a := paperArch()
	a.AddMemory("mem1")
	kinds := map[Kind]int{}
	for _, pe := range a.PEs() {
		kinds[pe.Kind]++
	}
	if kinds[KindProcessor] != 2 || kinds[KindHardware] != 1 || kinds[KindBus] != 1 || kinds[KindMemory] != 1 {
		t.Fatalf("PEs by kind = %v, want 2 processors, 1 hardware, 1 bus, 1 memory", kinds)
	}
	if got := len(a.ComputePEs()); got != 3 {
		t.Fatalf("ComputePEs = %d, want 3", got)
	}
	if got := len(a.BroadcastBuses()); got != 1 {
		t.Fatalf("BroadcastBuses = %d, want 1", got)
	}
}

func TestBroadcastBusesExcludesLocalBusesAndMemories(t *testing.T) {
	a := New()
	a.AddProcessor("p", 1)
	a.AddProcessor("q", 1)
	a.AddBus("local", false)
	a.AddMemory("mem")
	if len(a.BroadcastBuses()) != 0 {
		t.Fatalf("no all-connecting bus should be reported")
	}
	b := a.AddBus("global", true)
	bb := a.BroadcastBuses()
	if len(bb) != 1 || bb[0] != b {
		t.Fatalf("BroadcastBuses = %v, want [%d]", bb, b)
	}
	// AppendBroadcastBuses extends the buffer it is given.
	if got := a.AppendBroadcastBuses([]PEID{NoPE}); len(got) != 2 || got[0] != NoPE || got[1] != b {
		t.Fatalf("AppendBroadcastBuses = %v, want [%d %d]", got, NoPE, b)
	}
}

func TestBroadcasts(t *testing.T) {
	if !paperArch().Broadcasts() {
		t.Fatalf("two processors, an ASIC and an all-connecting bus broadcast")
	}
	single := New()
	single.AddProcessor("only", 1)
	single.AddBus("bus", true)
	if single.Broadcasts() {
		t.Fatalf("a single computation element knows every condition it decides")
	}
	local := New()
	local.AddProcessor("p", 1)
	local.AddHardware("h")
	local.AddBus("local", false)
	if local.Broadcasts() {
		t.Fatalf("no all-connecting bus, no broadcast")
	}
	local.AddBus("global", true)
	if !local.Broadcasts() {
		t.Fatalf("a processor and an ASIC on an all-connecting bus broadcast")
	}
	if n := testing.AllocsPerRun(100, func() { _ = local.Broadcasts() }); n != 0 {
		t.Fatalf("Broadcasts allocates %v times, want 0", n)
	}
}

func TestSequential(t *testing.T) {
	a := paperArch()
	mem := a.AddMemory("mem")
	proc, _ := a.FindByName("pe1")
	hw, _ := a.FindByName("pe3")
	bus, _ := a.FindByName("pe4")
	if !a.IsSequential(proc) {
		t.Fatalf("processors are sequential")
	}
	if a.IsSequential(hw) {
		t.Fatalf("hardware is not sequential")
	}
	if !a.IsSequential(bus) {
		t.Fatalf("buses are sequential")
	}
	if !a.IsSequential(mem) {
		t.Fatalf("memories are sequential")
	}
	if a.IsSequential(NoPE) {
		t.Fatalf("NoPE must not be sequential")
	}
}

func TestEffectiveExec(t *testing.T) {
	a := New()
	slow := a.AddProcessor("slow", 1)
	fast := a.AddProcessor("fast", 1.5)
	if got := a.EffectiveExec(30, slow); got != 30 {
		t.Fatalf("EffectiveExec(30, speed 1) = %d, want 30", got)
	}
	if got := a.EffectiveExec(30, fast); got != 20 {
		t.Fatalf("EffectiveExec(30, speed 1.5) = %d, want 20", got)
	}
	if got := a.EffectiveExec(31, fast); got != 21 {
		t.Fatalf("EffectiveExec(31, speed 1.5) = %d, want 21 (ceil)", got)
	}
	if got := a.EffectiveExec(10, NoPE); got != 0 {
		t.Fatalf("EffectiveExec on NoPE = %d, want 0", got)
	}
	if got := a.EffectiveExec(0, slow); got != 0 {
		t.Fatalf("EffectiveExec(0) = %d, want 0", got)
	}
	if got := a.EffectiveExec(-5, slow); got != 0 {
		t.Fatalf("EffectiveExec(negative) = %d, want 0", got)
	}
}

func TestValidateHappyPath(t *testing.T) {
	if err := paperArch().Validate(); err != nil {
		t.Fatalf("paper architecture should validate: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	empty := New()
	if err := empty.Validate(); err == nil {
		t.Fatalf("empty architecture must fail validation")
	}

	noBus := New()
	noBus.AddProcessor("a", 1)
	noBus.AddProcessor("b", 1)
	if err := noBus.Validate(); err == nil {
		t.Fatalf("multi-processor architecture without broadcast bus must fail")
	}

	single := New()
	single.AddProcessor("only", 1)
	if err := single.Validate(); err != nil {
		t.Fatalf("single-processor architecture needs no bus: %v", err)
	}

	dup := New()
	dup.AddProcessor("x", 1)
	dup.AddHardware("x")
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names must fail validation, got %v", err)
	}

	badTau := paperArch()
	badTau.SetCondTime(0)
	if err := badTau.Validate(); err == nil {
		t.Fatalf("non-positive τ0 must fail validation")
	}
}

func TestDefaultNamesAndSpeeds(t *testing.T) {
	a := New()
	id := a.AddProcessor("", 0)
	pe := a.PE(id)
	if pe.Name == "" {
		t.Fatalf("a default name should be assigned")
	}
	if pe.Speed != 1 {
		t.Fatalf("non-positive speed should default to 1, got %v", pe.Speed)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindProcessor, KindHardware, KindBus, KindMemory} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatalf("ParseKind should reject unknown names")
	}
	if s := Kind(42).String(); !strings.Contains(s, "42") {
		t.Fatalf("unknown kind string = %q", s)
	}
}

func TestArchitectureString(t *testing.T) {
	s := paperArch().String()
	if !strings.Contains(s, "2 processor") || !strings.Contains(s, "1 hardware") || !strings.Contains(s, "τ0=1") {
		t.Fatalf("String() = %q", s)
	}
	if got := New().String(); !strings.Contains(got, "empty") {
		t.Fatalf("empty architecture string = %q", got)
	}
}

func TestPropertyEffectiveExecMonotone(t *testing.T) {
	a := New()
	p := a.AddProcessor("p", 1.7)
	f := func(x, y uint16) bool {
		bx, by := int64(x), int64(y)
		if bx > by {
			bx, by = by, bx
		}
		return a.EffectiveExec(bx, p) <= a.EffectiveExec(by, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEffectiveExecNeverZeroForPositiveWork(t *testing.T) {
	a := New()
	fast := a.AddProcessor("fast", 1000)
	f := func(x uint8) bool {
		base := int64(x%50) + 1
		return a.EffectiveExec(base, fast) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package cpu

import "repro/internal/trace"

// Functional-unit model per Table 1 of the paper:
//
//	1 simple integer        latency 1   repeat 1
//	1 complex integer       multiply 9/1, divide 67/67
//	2 effective address     latency 1   repeat 1
//	1 simple FP             latency 4   repeat 1
//	1 FP multiplication     latency 4   repeat 1
//	1 FP divide & sqrt      divide 16/16, sqrt 35/35
//
// Branches execute on the simple integer unit.  The rest of §4's
// machine is as fixed as its units:
const (
	width           = 4      // fetch, dispatch, issue and commit width
	robSize         = 32     // reorder buffer entries
	physInt, physFP = 64, 64 // physical integer and FP registers
	memPorts        = 2      // cache ports
	bhtEntries      = 2048   // branch history table entries

	// Latencies and bus occupancies, in cycles.
	hitLatency         uint64 = 2  // L1 load hit
	missPenalty        uint64 = 20 // added by an L1 miss; the paper's L2 is infinite
	l2MissPenalty      uint64 = 60 // added by a miss in a finite L2 (Config.L2)
	lineBusCycles      uint64 = 4  // bus occupancy of a line fill: 32 B over 64 bits
	wordBusCycles      uint64 = 1  // bus occupancy of a write-through store
	mispredictRedirect uint64 = 1  // front-end refill after a mispredicted branch resolves
)

// unitKind enumerates the unit pools.
type unitKind int

const (
	unitIntSimple unitKind = iota
	unitIntComplex
	unitEffAddr
	unitFPSimple
	unitFPMul
	unitFPDiv
	numUnitKinds
)

// opTiming returns the unit pool, latency and repeat rate for an op.
func opTiming(op trace.Op) (kind unitKind, latency, repeat uint64) {
	switch op {
	case trace.OpIntALU, trace.OpBranch:
		return unitIntSimple, 1, 1
	case trace.OpIntMul:
		return unitIntComplex, 9, 1
	case trace.OpIntDiv:
		return unitIntComplex, 67, 67
	case trace.OpFPALU:
		return unitFPSimple, 4, 1
	case trace.OpFPMul:
		return unitFPMul, 4, 1
	case trace.OpFPDiv:
		return unitFPDiv, 16, 16
	case trace.OpFPSqrt:
		return unitFPDiv, 35, 35
	case trace.OpLoad, trace.OpStore:
		return unitEffAddr, 1, 1
	}
	panic("cpu: unknown op")
}

// fuPool tracks per-unit next-free cycles for the paper's unit inventory.
type fuPool struct {
	// nextFree[kind][i] is the first cycle unit i of that kind can start
	// a new operation.
	nextFree [numUnitKinds][]uint64
}

// newFUPool builds the Table 1 configuration: 2 effective-address units,
// 1 of everything else.
func newFUPool() *fuPool {
	p := &fuPool{}
	counts := map[unitKind]int{
		unitIntSimple:  1,
		unitIntComplex: 1,
		unitEffAddr:    2,
		unitFPSimple:   1,
		unitFPMul:      1,
		unitFPDiv:      1,
	}
	for k, n := range counts {
		p.nextFree[k] = make([]uint64, n)
	}
	return p
}

// tryIssue attempts to start op at cycle now; on success it books the
// unit (respecting the repeat rate) and returns the completion cycle.
func (p *fuPool) tryIssue(op trace.Op, now uint64) (done uint64, ok bool) {
	kind, lat, rep := opTiming(op)
	for i := range p.nextFree[kind] {
		if p.nextFree[kind][i] <= now {
			p.nextFree[kind][i] = now + rep
			return now + lat, true
		}
	}
	return 0, false
}

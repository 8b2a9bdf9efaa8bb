package channel

// MergedEngine models the paper's multi-reader deployment (§III-A): several
// readers whose coverage regions jointly contain the tag population, all
// coordinated by a back-end server so they can "be logically considered as
// one reader".
//
// Physically, every reader announces the same frame parameters and seeds
// (the back-end synchronizes them), each tag responds in the slots its own
// hashes select, and the back-end ORs the readers' busy observations. A tag
// covered by several readers is heard by all of them in the same slots —
// its hash depends only on the tag, not the reader — so the OR of the busy
// vectors equals the busy vector of the union population. No per-tag
// deduplication is needed and the "tags reply to only one reader"
// assumption the paper criticizes in [22] is not required.
//
// Construct it over per-reader engines whose populations may overlap; the
// union cardinality is what estimators will recover, which is Size's
// contract — so Size must be told the union size explicitly (the engines
// alone cannot know the overlap). The readers must be distinct engines:
// the merged frame is built in the first reader's frame buffer.
type MergedEngine struct {
	Readers   []Engine
	UnionSize int
}

// NewMergedEngine merges per-reader engines covering a population whose
// union has unionSize distinct tags. It panics on an empty reader set or a
// negative union size.
func NewMergedEngine(unionSize int, readers ...Engine) *MergedEngine {
	if len(readers) == 0 {
		panic("channel: merged engine needs at least one reader")
	}
	if unionSize < 0 {
		panic("channel: negative union size")
	}
	return &MergedEngine{Readers: readers, UnionSize: unionSize}
}

// Size implements Engine: the union cardinality (ground truth only).
func (e *MergedEngine) Size() int { return e.UnionSize }

// CheckFrame implements FrameChecker: every reader must execute the frame.
func (e *MergedEngine) CheckFrame(req FrameRequest) error {
	for _, r := range e.Readers {
		if err := CheckFrame(r, req); err != nil {
			return err
		}
	}
	return nil
}

// RunFrame implements Engine: the OR of the readers' observations.
//
// Note the overlap semantics: a tag present behind several engines
// responds in the same slots through each (same tag material, same seeds),
// so OR-ing reproduces the union population's frame exactly when the
// engines share tag material for shared tags (TagEngine over overlapping
// populations). With synthetic engines the shared tags are independently
// re-sampled per reader, which biases the union upward by the overlap —
// use tag-level engines for overlapping deployments.
func (e *MergedEngine) RunFrame(req FrameRequest) BitVec {
	merged := e.Readers[0].RunFrame(req)
	for _, r := range e.Readers[1:] {
		merged.or(r.RunFrame(req)) // back-end merge: one OR per word
	}
	return merged
}

// FirstResponse implements Engine: the earliest response any reader hears.
func (e *MergedEngine) FirstResponse(req FrameRequest, maxScan int) int {
	min := -1
	for _, r := range e.Readers {
		pos := r.FirstResponse(req, maxScan)
		if pos >= 0 && (min == -1 || pos < min) {
			min = pos
		}
	}
	return min
}

// RunFrameOccupancy implements OccupancyEngine by combining per-reader
// slot states: a slot empty on one side passes the other side through, and
// two occupied observations merge to Collision. For disjoint per-reader
// populations this is exact. For overlapping populations it over-reports
// collisions (two readers hearing the *same* single tag merge to
// Collision, since slot states cannot identify the transmitter) — the
// busy/idle path (RunFrame) has no such ambiguity and is what BFCE and the
// other bit-slot protocols use.
func (e *MergedEngine) RunFrameOccupancy(req FrameRequest) Occupancy {
	first, ok := e.Readers[0].(OccupancyEngine)
	if !ok {
		panic("channel: merged reader does not support occupancy frames")
	}
	merged := first.RunFrameOccupancy(req)
	for _, r := range e.Readers[1:] {
		oe, ok := r.(OccupancyEngine)
		if !ok {
			panic("channel: merged reader does not support occupancy frames")
		}
		occ := oe.RunFrameOccupancy(req)
		for i, s := range occ {
			merged[i] = mergeStates(merged[i], s)
		}
	}
	return merged
}

// mergeStates combines two readers' views of one slot. Distinct
// populations transmit independently, so Single+Single is a Collision;
// anything with an Empty side passes the other side through.
func mergeStates(a, b SlotState) SlotState {
	switch {
	case a == Empty:
		return b
	case b == Empty:
		return a
	default:
		return Collision
	}
}

package arch

import (
	"fmt"

	"cds/internal/scherr"
)

// ErrCMCorrupt reports that the Context Memory's residency accounting has
// broken: words are counted as used but no resident group can be evicted
// to free them. It can only arise from a bug in this package (no public
// call sequence reaches it), so it joins the taxonomy as
// scherr.ErrInternal — an error the caller reports rather than a panic
// that takes down a whole fuzzing sweep or scheduling service.
var ErrCMCorrupt = scherr.Sentinel(scherr.ErrInternal, "arch: context memory accounting corrupted")

// ContextMemory tracks which kernels' context planes currently reside in
// the on-chip Context Memory. The context scheduler uses it to decide when
// a kernel's contexts must be (re)loaded and to enforce the CM capacity.
//
// The model is deliberately at the granularity the scheduling papers use:
// a kernel owns a contiguous group of context words; groups are loaded and
// evicted whole. Groups are keyed by a dense ID (app.App.CtxGroups); a
// name function renders an ID in error messages only.
type ContextMemory struct {
	capacity int // words
	used     int
	name     func(int) string
	// group[g] is group g's residency.
	group []groupState
	// order lists loads in load order, for FIFO eviction, the policy
	// the MorphoSys compilation framework assumes when the CM
	// overflows. order[head:] holds every resident group, oldest
	// first; an entry its group's at no longer points at was evicted
	// out of turn (Evict) and is skipped.
	order []int32
	head  int
}

// groupState is one context group's residency: at is the index of its
// entry in the load order while it is resident, else -1; words is what
// it holds then.
type groupState struct {
	at    int32
	words int
}

// NewContextMemory returns an empty context memory with the given capacity
// in context words, sized for group IDs in [0, groups) (a larger ID grows
// it). name renders a group ID in error messages.
func NewContextMemory(capacityWords, groups int, name func(int) string) *ContextMemory {
	cm := &ContextMemory{capacity: capacityWords, name: name,
		group: make([]groupState, 0, groups), order: make([]int32, 0, max(2*groups, 4))}
	cm.grow(groups)
	return cm
}

// grow extends the group table to hold IDs in [0, groups).
func (cm *ContextMemory) grow(groups int) {
	for len(cm.group) < groups {
		cm.group = append(cm.group, groupState{at: -1})
	}
}

// Capacity returns the total capacity in context words.
func (cm *ContextMemory) Capacity() int { return cm.capacity }

// Used returns the number of context words currently occupied.
func (cm *ContextMemory) Used() int { return cm.used }

// Free returns the number of unoccupied context words.
func (cm *ContextMemory) Free() int { return cm.capacity - cm.used }

// Resident reports whether group's contexts are currently loaded.
func (cm *ContextMemory) Resident(group int) bool {
	return group >= 0 && group < len(cm.group) && cm.group[group].at >= 0
}

// Load brings words context words for group into the CM, evicting the
// least recently loaded groups if needed (FIFO). It returns the number of
// context words actually transferred (0 if the group was already
// resident) and an error if the group alone exceeds the CM capacity.
func (cm *ContextMemory) Load(group, words int) (int, error) {
	if group < 0 {
		return 0, fmt.Errorf("arch: negative context group ID %d", group)
	}
	if words < 0 {
		return 0, fmt.Errorf("arch: negative context size %d for kernel %q", words, cm.name(group))
	}
	if words > cm.capacity {
		return 0, fmt.Errorf("arch: kernel %q needs %d context words, CM holds %d: %w",
			cm.name(group), words, cm.capacity, ErrDoesNotFit)
	}
	if cm.Resident(group) {
		return 0, nil
	}
	for cm.used+words > cm.capacity {
		if err := cm.evictOldest(); err != nil {
			return 0, err
		}
	}
	cm.grow(group + 1)
	if len(cm.order) == cap(cm.order) && cm.head >= len(cm.order)/2 {
		cm.compact()
	}
	cm.group[group] = groupState{at: int32(len(cm.order)), words: words}
	cm.order = append(cm.order, int32(group))
	cm.used += words
	return words, nil
}

// compact drops the entries before head and the stale ones after it, so
// the load order reuses its storage instead of growing by one entry per
// load.
func (cm *ContextMemory) compact() {
	live := cm.order[:0]
	for i := cm.head; i < len(cm.order); i++ {
		if g := cm.order[i]; int(cm.group[g].at) == i {
			cm.group[g].at = int32(len(live))
			live = append(live, g)
		}
	}
	cm.order, cm.head = live, 0
}

// Evict removes group's contexts from the CM if present.
func (cm *ContextMemory) Evict(group int) {
	if !cm.Resident(group) {
		return
	}
	cm.group[group].at = -1
	cm.used -= cm.group[group].words
}

// Reset empties the context memory, keeping its storage for reuse.
func (cm *ContextMemory) Reset() {
	for _, g := range cm.order[cm.head:] {
		cm.group[g].at = -1
	}
	cm.order, cm.head = cm.order[:0], 0
	cm.used = 0
}

func (cm *ContextMemory) evictOldest() error {
	for ; cm.head < len(cm.order); cm.head++ {
		if g := int(cm.order[cm.head]); int(cm.group[g].at) == cm.head {
			// The entry goes stale; the next call skips it.
			cm.Evict(g)
			return nil
		}
	}
	return fmt.Errorf("arch: %d context words counted used but nothing to evict: %w",
		cm.used, ErrCMCorrupt)
}

// AppendResident appends the resident groups to dst in load order, each
// as its ID followed by its words, and returns the extended slice. Two
// memories of one capacity with equal lists load and evict alike from
// then on.
func (cm *ContextMemory) AppendResident(dst []int) []int {
	for i := cm.head; i < len(cm.order); i++ {
		if g := cm.order[i]; int(cm.group[g].at) == i {
			dst = append(dst, int(g), cm.group[g].words)
		}
	}
	return dst
}

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
// evicted whole.
type ContextMemory struct {
	capacity int // words
	used     int
	resident map[string]int // kernel name -> context words held
	// order remembers load order for FIFO eviction, the policy the
	// MorphoSys compilation framework assumes when the CM overflows.
	order []string
}

// NewContextMemory returns an empty context memory with the given capacity
// in context words.
func NewContextMemory(capacityWords int) *ContextMemory {
	return &ContextMemory{
		capacity: capacityWords,
		resident: make(map[string]int),
	}
}

// Capacity returns the total capacity in context words.
func (cm *ContextMemory) Capacity() int { return cm.capacity }

// Used returns the number of context words currently occupied.
func (cm *ContextMemory) Used() int { return cm.used }

// Free returns the number of unoccupied context words.
func (cm *ContextMemory) Free() int { return cm.capacity - cm.used }

// Resident reports whether kernel's contexts are currently loaded.
func (cm *ContextMemory) Resident(kernel string) bool {
	_, ok := cm.resident[kernel]
	return ok
}

// Load brings words context words for kernel into the CM, evicting the
// least recently loaded kernels if needed (FIFO). It returns the number of
// context words actually transferred (0 if the kernel was already
// resident) and an error if the kernel alone exceeds the CM capacity.
func (cm *ContextMemory) Load(kernel string, words int) (int, error) {
	if words < 0 {
		return 0, fmt.Errorf("arch: negative context size %d for kernel %q", words, kernel)
	}
	if words > cm.capacity {
		return 0, fmt.Errorf("arch: kernel %q needs %d context words, CM holds %d: %w",
			kernel, words, cm.capacity, ErrDoesNotFit)
	}
	if cm.Resident(kernel) {
		return 0, nil
	}
	for cm.used+words > cm.capacity {
		if err := cm.evictOldest(); err != nil {
			return 0, err
		}
	}
	cm.resident[kernel] = words
	cm.order = append(cm.order, kernel)
	cm.used += words
	return words, nil
}

// Evict removes kernel's contexts from the CM if present.
func (cm *ContextMemory) Evict(kernel string) {
	words, ok := cm.resident[kernel]
	if !ok {
		return
	}
	delete(cm.resident, kernel)
	cm.used -= words
	for i, name := range cm.order {
		if name == kernel {
			cm.order = append(cm.order[:i], cm.order[i+1:]...)
			break
		}
	}
}

// Reset empties the context memory, keeping its storage for reuse.
func (cm *ContextMemory) Reset() {
	clear(cm.resident)
	cm.order = cm.order[:0]
	cm.used = 0
}

func (cm *ContextMemory) evictOldest() error {
	if len(cm.order) == 0 {
		return fmt.Errorf("arch: %d context words counted used but nothing to evict: %w",
			cm.used, ErrCMCorrupt)
	}
	cm.Evict(cm.order[0])
	return nil
}

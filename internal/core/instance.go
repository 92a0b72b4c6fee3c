package core

import (
	"strconv"
	"strings"

	"cds/internal/app"
)

// Instances gives every datum instance of a schedule, one (datum,
// iteration) pair, a dense key: datum ID × Iters + iteration, where
// Iters is the schedule's largest visit iteration count. The allocation
// replay and the checkers key their per-instance tables by it instead
// of by instance name; each replay event carries its key
// (AllocEvent.Inst). The app must be finalized.
type Instances struct {
	a *app.App
	// Iters bounds the iteration of every instance.
	Iters int
}

// InstancesOf returns the instance keys of the schedule.
func InstancesOf(s *Schedule) Instances {
	in := Instances{a: s.P.App}
	for _, v := range s.period.Visits {
		in.Iters = max(in.Iters, v.Iters)
	}
	return in
}

// Len returns the size of the key space, [0, Len).
func (in Instances) Len() int { return in.a.NumData() * in.Iters }

// Key returns the key of datum id's instance of iteration iter.
func (in Instances) Key(id int32, iter int) int { return int(id)*in.Iters + iter }

// Datum returns the datum ID of key k.
func (in Instances) Datum(k int) int32 { return int32(k / in.Iters) }

// Iter returns the iteration of key k.
func (in Instances) Iter(k int) int { return k % in.Iters }

// Name returns the name of key k's instance, "<datum>#i<iter>", the form
// ParseInstance reads.
func (in Instances) Name(k int) string {
	return in.a.DatumName(in.Datum(k)) + "#i" + strconv.Itoa(in.Iter(k))
}

// ParseInstance splits an instance name built by the replay,
// "<datum>#i<iter>", into its datum and iteration. ok is false unless the
// iteration is a non-negative decimal written the way strconv.Itoa
// prints it: "tile#i3" parses, "tile#i03", "tile#i3x", "tile#i 3",
// "tile#i0x1f" and "tile#i-1" do not.
func ParseInstance(name string) (datum string, iter int, ok bool) {
	i := strings.LastIndex(name, "#i")
	if i < 0 {
		return "", 0, false
	}
	digits := name[i+2:]
	if digits == "" || (digits[0] == '0' && len(digits) > 1) {
		return "", 0, false
	}
	for j := 0; j < len(digits); j++ {
		if digits[j] < '0' || digits[j] > '9' {
			return "", 0, false
		}
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return "", 0, false
	}
	return name[:i], n, true
}

package main

// Host speed. On a shared virtual machine the same code runs at anywhere
// from about half to all of its quiet speed while neighbours load the
// physical host, in swings of a quarter within a second and spells that
// last minutes; the guest sees little steal time, so nothing inside it
// can tell such a spell from a slower program. Wall-clock metrics would
// follow the neighbours instead of the code. The benchmark therefore runs
// a fixed probe, work that calls nothing in the repository, in short
// slices during every run, and scales each timing by the speed the
// slices on either side of it read against refSpeed: a run in a slow
// spell reads about as it would have on a quiet host. The raw timings and
// the run's median speed are printed beside the scaled ones.
//
// The probe does what the measured code spends its time on: it allocates
// small linked objects, walks them through a map and sorts the result.
// Measured against the workloads through slow and quiet spells on a
// 2-vCPU VM, such work slowed as much as the workloads did (to 0.54 of
// its quiet speed while table1 fell to 0.55), where pure hashing (0.72)
// or a pointer chase through memory (0.66) slowed less. The probe runs in
// a child process, on procs goroutines, while the measured process waits
// for it, so its allocations neither count in the measured process's
// peak RSS nor pace that process's collector.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// refSpeed is the probe's speed, in units per second of processor
	// time, on a quiet 2-vCPU Intel Xeon VM (Go 1.24). It sets the scale
	// the timings are reported at, and the service workloads' load: on a
	// host whose probe reads refSpeed they run at the rates as written.
	refSpeed = 2100

	// probeNodes and probeEdges size one unit's graph.
	probeNodes = 1000
	probeEdges = 4

	// probeArg is the argument that makes the binary a probe process.
	probeArg = "probe"
)

type probeNode struct {
	id   int
	next []*probeNode
}

// probeUnit is one unit of probe work: a random graph built, walked
// breadth first and its visit order sorted. state is the caller's random
// state (xorshift), advanced in place.
func probeUnit(state *uint64) int {
	rnd := func() int {
		*state ^= *state << 13
		*state ^= *state >> 7
		*state ^= *state << 17
		return int(*state % probeNodes)
	}
	nodes := make([]*probeNode, probeNodes)
	for i := range nodes {
		nodes[i] = &probeNode{id: rnd()}
	}
	for _, n := range nodes {
		for k := 0; k < probeEdges; k++ {
			n.next = append(n.next, nodes[rnd()])
		}
	}
	seen := map[*probeNode]bool{}
	var order []int
	queue := []*probeNode{nodes[0]}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		order = append(order, n.id)
		queue = append(queue, n.next...)
	}
	sort.Ints(order)
	return len(order)
}

// probe runs the probe on procs goroutines for d and returns its speed in
// units per second of processor time. Counting processor time rather than
// wall time leaves out the moments the measured process, waiting for the
// probe, still runs threads of its own (its collector marks a large heap
// on idle processors): those take processors from the probe, not speed.
func probe(d time.Duration) (float64, error) {
	var wg sync.WaitGroup
	counts := make([]int, procs)
	cpu0, err := processCPU()
	if err != nil {
		return 0, err
	}
	deadline := time.Now().Add(d)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			state := uint64(g + 1)
			for !time.Now().After(deadline) {
				probeUnit(&state)
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	cpu1, err := processCPU()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / (cpu1 - cpu0).Seconds(), nil
}

// processCPU is the processor time this process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading processor time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// probeMain is the probe process: it reads durations in nanoseconds, one
// a line, probes for each and answers with the speed, until its input
// closes.
func probeMain(in io.Reader, out io.Writer) int {
	fmt.Fprintln(out, "ready")
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		ns, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench probe:", err)
			return 2
		}
		v, err := probe(time.Duration(ns))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench probe:", err)
			return 1
		}
		fmt.Fprintln(out, v)
	}
	return 0
}

// speedometer drives a probe process and keeps its readings.
type speedometer struct {
	cmd      *exec.Cmd
	in       io.WriteCloser
	out      *bufio.Reader
	readings []float64
	err      error // the first failed reading
}

// startSpeedometer starts a probe process and waits until it is ready.
func startSpeedometer() (*speedometer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, probeArg)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the probe: %w", err)
	}
	s := &speedometer{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if line, err := s.out.ReadString('\n'); err != nil || line != "ready\n" {
		s.close()
		return nil, fmt.Errorf("the probe did not start: %q %v", line, err)
	}
	return s, nil
}

// read probes for d, keeps the reading and returns the host speed it
// gives: the reading over refSpeed. The first failure is kept in err,
// which fails the run, since its timings could not be scaled; after it
// read returns the last good speed.
func (s *speedometer) read(d time.Duration) float64 {
	if s.err == nil {
		if v, err := s.ask(d); err != nil {
			s.err = fmt.Errorf("reading the host speed: %w", err)
		} else {
			s.readings = append(s.readings, v)
		}
	}
	if len(s.readings) == 0 {
		return 1
	}
	return s.readings[len(s.readings)-1] / refSpeed
}

func (s *speedometer) ask(d time.Duration) (float64, error) {
	if _, err := fmt.Fprintln(s.in, int64(d)); err != nil {
		return 0, err
	}
	line, err := s.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// close stops the probe process and waits for it.
func (s *speedometer) close() {
	s.in.Close()
	s.cmd.Wait()
}

// scale is the run's host speed so far against the reference: the median
// reading over refSpeed. Below 1 the host ran slow. It paces the service
// workloads' open-loop load and scales the timings that no nearer
// reading covers.
func (s *speedometer) scale() float64 {
	if len(s.readings) == 0 {
		return 1
	}
	return median(s.readings) / refSpeed
}

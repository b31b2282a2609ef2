package main

// Splitting the host's CPUs between the driver and the service. Unpinned,
// the two processes' threads wander across the CPUs, every hand-off
// between goroutines can become a wake-up on another CPU, and how often
// that happens follows the host's other tenants rather than the code under
// test. So the driver runs on the first CPU it may use and the service on
// all the others. A process is pinned by setting its thread's affinity and
// re-executing itself: every thread of the new image inherits the mask,
// and the Go runtime sizes GOMAXPROCS from it.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// serviceCPUsEnv carries the service's CPU list across the driver's
// re-exec; its presence marks the driver as already pinned.
const serviceCPUsEnv = "PERFBENCH_SERVICE_CPUS"

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) list() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func setOf(cpus []int) cpuSet {
	var s cpuSet
	for _, c := range cpus {
		s[c/64] |= 1 << (c % 64)
	}
	return s
}

func getAffinity() (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return s, nil
}

// pinAndExec sets the calling thread's affinity to cpus and re-executes
// the program with env added. It returns only on failure.
func pinAndExec(cpus []int, env ...string) error {
	runtime.LockOSThread()
	s := setOf(cpus)
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity %v: %w", cpus, e)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), env...))
}

// pinDriver pins the driver to the first allowed CPU and records the rest
// for the service. It returns the service's CPUs: none on a one-CPU host
// or where the affinity calls fail, and then nothing is pinned.
func pinDriver() []int {
	if v, ok := os.LookupEnv(serviceCPUsEnv); ok {
		cpus, err := parseCPUs(v)
		if err != nil {
			unpinned(err)
		}
		return cpus
	}
	s, err := getAffinity()
	if err != nil {
		unpinned(err)
		return nil
	}
	cpus := s.list()
	if len(cpus) < 2 {
		return nil
	}
	unpinned(pinAndExec(cpus[:1], serviceCPUsEnv+"="+formatCPUs(cpus[1:])))
	return nil
}

// pinService re-executes the service on cpus unless it already runs on
// exactly them. On failure it runs where it was started.
func pinService(cpus []int) {
	if len(cpus) == 0 {
		return
	}
	s, err := getAffinity()
	if err != nil {
		unpinned(err)
		return
	}
	if s != setOf(cpus) {
		unpinned(pinAndExec(cpus))
	}
}

// unpinned reports a failed pinning step; the run goes on unpinned.
func unpinned(err error) {
	fmt.Fprintln(os.Stderr, "perfbench: running unpinned:", err)
}

func formatCPUs(cpus []int) string {
	parts := make([]string, len(cpus))
	for i, c := range cpus {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

func parseCPUs(v string) ([]int, error) {
	if v == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(v, ",") {
		c, err := strconv.Atoi(f)
		if err != nil || c < 0 || c >= len(cpuSet{})*64 {
			return nil, fmt.Errorf("bad CPU list %q", v)
		}
		out = append(out, c)
	}
	return out, nil
}

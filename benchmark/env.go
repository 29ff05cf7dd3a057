package main

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// Seeds recorded with the benchmark: DevSeed is the one used while a change
// is written, HeldOutSeed the one a claim must also hold on.
const (
	DevSeed     = 20010807
	HeldOutSeed = 65537
)

// generatorLoad is the load-generator footprint of every workload: one
// publishing (or joining) goroutine and one subscriber connection.  Fan-out
// width comes from in-process sinks, which run on the broker's goroutines.
const generatorLoad = 2

// The process runs on one CPU with one P: see README, "Run shape".  pinEnv
// carries the chosen CPU, and nprocEnv the number of CPUs the process could
// use before it was pinned, across the re-exec that pins it.
const (
	pinEnv   = "XMITPERF_PINNED_CPU"
	nprocEnv = "XMITPERF_NPROC"
)

// pinToOneCPU restricts the process to the highest-numbered CPU it may use
// (CPU 0 takes most interrupts) and re-executes itself, so that every thread
// of the new image — the runtime starts some before main — inherits the mask.
// Where the kernel refuses, the run goes on unpinned and says so in its
// environment stamp.
func pinToOneCPU() {
	if os.Getenv(pinEnv) != "" {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return
	}
	cpu, nproc := -1, 0
	for i, w := range mask[:n/8] {
		if w != 0 {
			cpu = i*64 + 63 - bits.LeadingZeros64(w)
		}
		nproc += bits.OnesCount64(w)
	}
	if cpu < 0 {
		return
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	env := append(os.Environ(), pinEnv+"="+strconv.Itoa(cpu), nprocEnv+"="+strconv.Itoa(nproc))
	syscall.Exec(exe, os.Args, env) // returns only on failure: go on in this image
}

// hostCPUs is the number of CPUs the process could use before it was pinned.
func hostCPUs() int {
	if n, err := strconv.Atoi(os.Getenv(nprocEnv)); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// envStamp records where a set of numbers was measured.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	PinnedCPU  int    `json:"pinned_cpu"` // -1: not pinned
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Lane       string `json:"lane"`
}

// configureProcs applies the run shape — one CPU, GOMAXPROCS = 1 unless the
// environment already chose — and refuses shapes whose numbers would measure
// the scheduler instead of the system.
func configureProcs() error {
	pinToOneCPU()
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	return checkProcs(hostCPUs(), runtime.GOMAXPROCS(0), generatorLoad)
}

func checkProcs(nproc, gomaxprocs, generators int) error {
	if gomaxprocs > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", gomaxprocs, nproc)
	}
	if generators > nproc {
		return fmt.Errorf("%d load-generator goroutines and connections need as many CPUs, have %d", generators, nproc)
	}
	return nil
}

func stampEnv(seed int64) envStamp {
	pinned, err := strconv.Atoi(os.Getenv(pinEnv))
	if err != nil {
		pinned = -1
	}
	return envStamp{
		NumCPU:     hostCPUs(),
		PinnedCPU:  pinned,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     commitOf("."),
		Seed:       seed,
		Lane:       "loopback-tcp",
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var sb strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// commitOf reads the checked-out commit from a git directory without
// running git; a checkout that is not a repository reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

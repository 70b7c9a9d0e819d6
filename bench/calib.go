package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared virtual machines, where two things move
// wall time by 20-100% from one minute to the next (see README.md):
//
//   - the hypervisor runs other guests on our vCPUs, sometimes for a
//     quarter of the time over minutes; the guest kernel counts this as
//     steal time;
//   - when the vCPUs do run, they run 20-60% slower or faster as
//     neighbours load the caches and cores they share.
//
// So every timed stretch of a run is scaled by the share of vCPU time
// that was not stolen during it, and, unless most of it is spent
// waiting, by refKernelMS over the CPU time of a reference kernel timed
// just before and after it. The benchmark reports how long the work
// would have taken on the machine alone at its reference speed.
// Allocation-heavy workloads slow down with the cost of allocating fresh
// memory and arithmetic-heavy ones with the latency of dependent
// floating-point operations, so the kernel does some of both.

// refKernelMS is about the kernel's median CPU time, in ms, on a 2-vCPU
// Intel Xeon VM at 2.1 GHz. It only sets the units of the scaled
// metrics; any constant would compare two commits the same way.
const refKernelMS = 3.0

const (
	kernelNodes = 10000
	// kernelSweeps are the floating-point half's passes over its arrays;
	// they take about as long as the allocating half.
	kernelSweeps = 120
	// kernelPasses are timed per sample; the sample is their median.
	kernelPasses = 5
)

type kernelNode struct {
	key  int
	next *kernelNode
	val  [4]float64
}

// kernelA, kernelB and kernelC are the floating-point half's arrays,
// 96 KiB in all, so they stay in cache.
var kernelA, kernelB, kernelC = make([]float64, 4096), make([]float64, 4096), make([]float64, 4096)

// kernelPass is one pass of the reference kernel. It allocates and links
// kernelNodes small objects, indexes a quarter of them in a map, and
// sorts a slice built from them: the allocation, hashing and sorting the
// program spends much of its time on. Then it sweeps three arrays with
// a multiply-add and a running dot product, as the performance models
// do.
func kernelPass() int {
	index := make(map[int]*kernelNode, 64)
	var head *kernelNode
	for i := 0; i < kernelNodes; i++ {
		n := &kernelNode{key: i * 7919 % 10007, next: head}
		n.val[0] = float64(i)
		head = n
		if i%4 == 0 {
			index[n.key] = n
		}
	}
	keys := make([]float64, 0, kernelNodes)
	for n := head; n != nil; n = n.next {
		keys = append(keys, float64(n.key)*1.618)
	}
	sort.Float64s(keys)
	for r := 0; r < kernelSweeps; r++ {
		s := 0.0
		for i := range kernelA {
			kernelA[i] = kernelA[i]*0.999 + kernelB[i]*float64(r)
			s += kernelA[i] * kernelC[i]
		}
		kernelC[r] = s
	}
	return len(index) + int(keys[len(keys)/2]) + int(kernelC[0])
}

// kernelSink keeps the passes' results live.
var kernelSink int

// threadCPU is the calling OS thread's CPU time. The guest kernel leaves
// stolen time out of it.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// serveKernel is the kernel process: for every byte read from in it
// times one sample, the median CPU time of kernelPasses passes with the
// garbage collector held off, collects the passes' garbage untimed, and
// writes the sample in ms as one line to out. It returns when in closes.
func serveKernel(in io.Reader, out io.Writer) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadByte(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		old := debug.SetGCPercent(-1)
		passes := make([]float64, kernelPasses)
		for i := range passes {
			t0, err := threadCPU()
			if err != nil {
				return err
			}
			kernelSink += kernelPass()
			t1, err := threadCPU()
			if err != nil {
				return err
			}
			passes[i] = ms(t1 - t0)
		}
		debug.SetGCPercent(old)
		runtime.GC()
		_, med, _ := quartiles(passes)
		if _, err := fmt.Fprintf(out, "%g\n", med); err != nil {
			return err
		}
	}
}

// cpuTicks reads the time all vCPUs have spent in each state and the
// part of it stolen by the hypervisor, from the first line of /proc/stat
// (user nice system idle iowait irq softirq steal ...), in clock ticks.
func cpuTicks() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// scaler turns wall time into time on the machine alone at the reference
// speed. The kernel runs in a child process, this binary with the
// "kernel" argument, so that it shares no heap, collector or allocator
// state with the program: what it measures is the machine, not the
// program. A stretch runs from the end of one sample to the start of the
// next.
type scaler struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	last    float64   // the latest kernel sample, ms
	samples []float64 // every kernel sample, ms
	// total and steal are the /proc/stat ticks at the start of the
	// current stretch; allTotal and allSteal sum every stretch's.
	total, steal       float64
	allTotal, allSteal float64
}

// startScaler starts the kernel process and takes a first sample.
func startScaler() (*scaler, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "kernel")
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
		return nil, err
	}
	s := &scaler{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if err := s.sample(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// sample times the kernel once and starts a stretch.
func (s *scaler) sample() error {
	if _, err := s.in.Write([]byte{1}); err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	line, err := s.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || !(v > 0) {
		return fmt.Errorf("reference kernel: bad sample %q", line)
	}
	s.last = v
	s.samples = append(s.samples, v)
	s.total, s.steal, err = cpuTicks()
	return err
}

// next ends the stretch since the previous sample and takes the sample
// that closes it. It returns the two factors that scale the stretch to
// the machine alone at the reference speed: kept, the share of vCPU time
// not stolen during it, and speed, refKernelMS over the mean of the
// kernel samples on either side of it.
func (s *scaler) next() (kept, speed float64, err error) {
	total, steal, err := cpuTicks()
	if err != nil {
		return 0, 0, err
	}
	kept = 1
	if dt := total - s.total; dt > 0 {
		kept = 1 - (steal-s.steal)/dt
		s.allTotal += dt
		s.allSteal += steal - s.steal
	}
	before := s.last
	if err := s.sample(); err != nil {
		return 0, 0, err
	}
	return kept, refKernelMS / ((before + s.last) / 2), nil
}

// stealPct is the share of vCPU time stolen over every stretch so far.
func (s *scaler) stealPct() float64 {
	return 100 * ratio(s.allSteal, s.allTotal)
}

// stop ends the kernel process and waits for it.
func (s *scaler) stop() error {
	s.in.Close()
	return s.cmd.Wait()
}

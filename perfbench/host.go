package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo fingerprints the machine a result was measured on; numbers
// from different hosts are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	WALFS      string `json:"wal_fs"`
}

func fingerprint(walDir string) hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		WALFS:      fsType(walDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsType returns the type of the filesystem mounted at the longest
// /proc/mounts prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}

// Heap readings come from runtime/metrics, which does not stop the world.
const (
	// heapLiveMetric is the heap the last GC cycle marked live. Unlike the
	// heap in use it does not include garbage awaiting collection, though
	// it does count what was allocated while the cycle ran.
	heapLiveMetric   = "/gc/heap/live:bytes"
	heapAllocsMetric = "/gc/heap/allocs:bytes"
)

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocBytes is the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 { return readUint64(heapAllocsMetric) }

// phaseSampler watches one timed phase: the peak live heap, sampled every
// heapSampleEvery, and the share of the machine's CPU time the hypervisor
// gave to other guests (steal), which is what moves wall-clock throughput
// between runs on a shared host.
type phaseSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	cpu0   []uint64

	mu   sync.Mutex
	peak uint64
}

const heapSampleEvery = 10 * time.Millisecond

func startPhase() *phaseSampler {
	runtime.GC() // start the timed phase from the live heap alone
	h := &phaseSampler{stopCh: make(chan struct{}), peak: readUint64(heapLiveMetric), cpu0: cpuTimes()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stopCh:
				return
			case <-t.C:
				live := readUint64(heapLiveMetric)
				h.mu.Lock()
				h.peak = max(h.peak, live)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// cut returns the peak live heap in MiB since the previous cut (or the
// start) and starts a new segment from the current live heap.
func (h *phaseSampler) cut() float64 {
	live := readUint64(heapLiveMetric)
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := max(h.peak, live)
	h.peak = live
	return float64(peak) / (1 << 20)
}

// stop ends sampling and returns the steal share of the phase.
func (h *phaseSampler) stop() (stealFrac float64) {
	close(h.stopCh)
	h.wg.Wait()
	if cpu1 := cpuTimes(); len(cpu1) > 7 && len(h.cpu0) == len(cpu1) {
		var total uint64
		for i := range cpu1 {
			total += cpu1[i] - h.cpu0[i]
		}
		stealFrac = ratio(float64(cpu1[7]-h.cpu0[7]), float64(total))
	}
	return stealFrac
}

// cpuTimes reads the machine-wide CPU time counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...); nil where the
// file does not exist.
func cpuTimes() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 2 || fields[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 0, len(fields)-1)
	for _, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

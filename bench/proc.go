package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it has
// been 100 on every Linux architecture Go runs on.
const clockTick = 100

// parseStatCPU returns utime+stime in clock ticks from the contents of
// /proc/<pid>/stat. The comm field may hold spaces and parentheses, so the
// numbered fields are counted from the last ')'.
func parseStatCPU(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no comm field")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return utime + stime, nil
}

// parseVmHWM returns the peak resident set in kB from /proc/<pid>/status.
func parseVmHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: VmHWM line %q", line)
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// schedstatSeconds sums the scheduler's nanosecond run time over the threads
// of pid (/proc/<pid>/task/*/schedstat; the process-level file covers the
// first thread only). ok is false where the kernel keeps no such count.
func schedstatSeconds(pid int) (s float64, ok bool) {
	files, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread has exited since the glob
		}
		first, _, _ := strings.Cut(string(b), " ")
		ns, err := strconv.ParseUint(first, 10, 64)
		if err != nil {
			return 0, false
		}
		s += float64(ns) / 1e9
	}
	return s, len(files) > 0
}

// cpuSeconds sums the CPU time of the given live processes: the scheduler's
// nanosecond count where there is one, so that a block of a tenth of a second
// is not a dozen clock ticks, and utime+stime otherwise.
func cpuSeconds(pids []int) (float64, error) {
	var total float64
	for _, pid := range pids {
		if s, ok := schedstatSeconds(pid); ok {
			total += s
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		t, err := parseStatCPU(string(b))
		if err != nil {
			return 0, err
		}
		total += float64(t) / clockTick
	}
	return total, nil
}

// peakRSSMB sums VmHWM of the given live processes, in MB (1e6 bytes).
func peakRSSMB(pids []int) (float64, error) {
	var kb uint64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		v, err := parseVmHWM(string(b))
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) * 1024 / 1e6, nil
}

// hostSteal returns the steal and total CPU ticks of the host so far: time
// the hypervisor ran something else while this VM had work to do.
func hostSteal() (steal, total float64) {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			total += v
			if i == 8 {
				steal = v
			}
		}
	}
	return steal, total
}

// dirPrefix starts the name of every data directory the benchmark creates,
// followed by the creating process's pid, so a later run can tell a leaked
// directory from a live one.
const dirPrefix = "ecfrm-bench-"

// minFreeBytes is the free space below which a run refuses to start: a
// single-put round holds ≈1 GiB of stripes, and a nearly full tmpfs made PUTs
// 3× slower while this benchmark was being scoped.
const minFreeBytes = 4 << 30

// sandbox owns everything a run leaves on the host: server processes and
// data directories. Every exit path ends in purge.
type sandbox struct {
	dataRoot string
	mu       sync.Mutex
	closed   bool // set by purge: nothing more may be created
	procs    map[*exec.Cmd]struct{}
	dirs     map[string]struct{}
}

var errSandboxClosed = errors.New("the run is being stopped")

// fsNames maps statfs magic numbers to the names printed as data_fs.
var fsNames = map[int64]string{
	0x01021994: "tmpfs", 0xEF53: "ext", 0x58465342: "xfs", 0x9123683E: "btrfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
}

// newSandbox picks where data directories live. tmpfs is preferred because
// fsync there costs the same every time: the calls are still made, but the
// host's flush latency (0.7 ms and doubling PUT latency on the sandbox disk,
// and not the program's) stays out of the numbers. If fallback, a directory
// inside the checkout, is itself on tmpfs it is used; otherwise /dev/shm;
// without a usable /dev/shm, fallback whatever it is on.
func newSandbox(dataRoot, fallback string) (*sandbox, error) {
	if dataRoot == "" {
		dataRoot = fallback
		if err := os.MkdirAll(fallback, 0o755); err != nil {
			return nil, err
		}
		if !onTmpfs(fallback) && onTmpfs("/dev/shm") {
			if f, err := os.CreateTemp("/dev/shm", dirPrefix+"probe-"); err == nil {
				f.Close()
				os.Remove(f.Name())
				dataRoot = "/dev/shm"
			}
		}
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	sb := &sandbox{dataRoot: dataRoot, procs: map[*exec.Cmd]struct{}{}, dirs: map[string]struct{}{}}
	sb.removeStale()
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataRoot, &st); err != nil {
		return nil, err
	}
	if free := st.Bavail * uint64(st.Bsize); free < minFreeBytes {
		return nil, fmt.Errorf("%s has %d MiB free, need %d MiB: refusing to measure on a nearly full filesystem",
			dataRoot, free>>20, minFreeBytes>>20)
	}
	return sb, nil
}

func onTmpfs(path string) bool {
	var st syscall.Statfs_t
	return syscall.Statfs(path, &st) == nil && fsNames[int64(st.Type)] == "tmpfs"
}

// fsName names the filesystem under the data root.
func (sb *sandbox) fsName() string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(sb.dataRoot, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// removeStale deletes data directories left by benchmark processes that no
// longer exist (a run killed with SIGKILL cannot clean up after itself).
func (sb *sandbox) removeStale() {
	matches, _ := filepath.Glob(filepath.Join(sb.dataRoot, dirPrefix+"*"))
	for _, m := range matches {
		rest := strings.TrimPrefix(filepath.Base(m), dirPrefix)
		pid, err := strconv.Atoi(strings.SplitN(rest, "-", 2)[0])
		if err == nil && pid != os.Getpid() && syscall.Kill(pid, 0) == nil {
			continue // its owner is alive
		}
		os.RemoveAll(m)
	}
}

// mkdir creates an empty data directory that purge will remove. It holds the
// lock while it creates, so that a directory is either registered before
// purge runs or refused after it.
func (sb *sandbox) mkdir(label string) (string, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return "", errSandboxClosed
	}
	dir, err := os.MkdirTemp(sb.dataRoot, fmt.Sprintf("%s%d-%s-", dirPrefix, os.Getpid(), label))
	if err != nil {
		return "", err
	}
	sb.dirs[dir] = struct{}{}
	return dir, nil
}

func (sb *sandbox) rmdir(dir string) {
	os.RemoveAll(dir)
	sb.mu.Lock()
	delete(sb.dirs, dir)
	sb.mu.Unlock()
}

// start runs bin in its own process group, with its output in logPath, and
// has the kernel kill it should this process die without cleaning up.
func (sb *sandbox) start(bin, logPath string, args ...string) (*exec.Cmd, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	sb.mu.Lock() // as in mkdir
	defer sb.mu.Unlock()
	if sb.closed {
		return nil, errSandboxClosed
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sb.procs[cmd] = struct{}{}
	return cmd, nil
}

// stop asks the process to drain (SIGTERM), kills its group if it has not
// exited within the grace period, and reports an unclean exit as an error.
func (sb *sandbox) stop(cmd *exec.Cmd, grace time.Duration) error {
	sb.mu.Lock()
	_, live := sb.procs[cmd]
	delete(sb.procs, cmd)
	sb.mu.Unlock()
	if !live {
		return nil
	}
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-done
		return fmt.Errorf("pid %d ignored SIGTERM for %v, killed", cmd.Process.Pid, grace)
	}
}

// purge kills every process still running, removes every directory still
// present, and closes the sandbox to new ones. It is idempotent and safe to
// call from a signal handler goroutine.
func (sb *sandbox) purge() {
	sb.mu.Lock()
	procs, dirs := sb.procs, sb.dirs
	sb.procs, sb.dirs = map[*exec.Cmd]struct{}{}, map[string]struct{}{}
	sb.closed = true
	sb.mu.Unlock()
	for cmd := range procs {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		cmd.Wait()
	}
	for dir := range dirs {
		os.RemoveAll(dir)
	}
}

// dirBytes sums the sizes of the regular files under the given directories.
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

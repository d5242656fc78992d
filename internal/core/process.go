package core

import (
	"bufio"
	"fmt"
	"io"
	osexec "os/exec"
	"strings"
	"sync"
	"time"

	"pdcquery/internal/cluster"
	"pdcquery/internal/telemetry"
)

// ProcessDeployment is the multi-process cluster: one pdc-server
// -catalog child plus N pdc-server -join children, each a real OS
// process over real TCP. The in-proc Deployment stays the deterministic
// fast path; this harness exists to prove the same catalog, placement,
// replication, and failover machinery holds when members are separate
// processes that can be SIGKILLed — cmd/pdc-clustersmoke and the
// process chaos test drive it.
type ProcessDeployment struct {
	opts ProcessOptions

	catalog     *child
	catalogAddr string

	mu      sync.Mutex
	members []*child // live members, spawn order
}

// ProcessOptions configures a process cluster.
type ProcessOptions struct {
	// BinPath is the pdc-server binary to spawn. Required.
	BinPath string
	// Members is the initial member count (default 3).
	Members int
	// R is the replication factor (default 2).
	R int
	// Seed parameterizes placement.
	Seed uint64
	// Metrics starts each child's HTTP metrics listener on a free port
	// (read the address back with MetricsAddr).
	Metrics bool
	// Stderr receives the children's stderr (nil = discard).
	Stderr io.Writer
}

// Process-cluster timing. Members beat every processHeartbeat; the
// catalog declares silence longer than processHeartbeatTimeout a death.
// processStartTimeout bounds each child's listen handshake (a child that
// neither prints PDC_LISTENING nor exits is killed) and the wait for the
// committed view to include the initial members.
const (
	processHeartbeat        = 100 * time.Millisecond
	processHeartbeatTimeout = time.Second
	processStartTimeout     = 30 * time.Second
)

// child is one spawned pdc-server process.
type child struct {
	cmd         *osexec.Cmd
	addr        string // serving address from the PDC_LISTENING handshake
	metricsAddr string // from PDC_METRICS (empty unless Metrics)
	waitErr     chan error
}

// StartProcessDeployment spawns the catalog and the initial members,
// then waits for the committed view to include them all.
func StartProcessDeployment(opts ProcessOptions) (*ProcessDeployment, error) {
	if opts.BinPath == "" {
		return nil, fmt.Errorf("core: ProcessOptions.BinPath is required")
	}
	if opts.Members <= 0 {
		opts.Members = 3
	}
	if opts.R <= 0 {
		opts.R = 2
	}
	p := &ProcessDeployment{opts: opts}
	cat, err := p.spawn(
		"-catalog", "-addr", "127.0.0.1:0",
		"-seed", fmt.Sprint(opts.Seed),
		"-cluster-r", fmt.Sprint(opts.R),
		"-heartbeat-timeout", processHeartbeatTimeout.String(),
	)
	if err != nil {
		return nil, fmt.Errorf("core: start catalog: %w", err)
	}
	p.catalog = cat
	p.catalogAddr = cat.addr
	for i := 0; i < opts.Members; i++ {
		if _, err := p.Spawn(); err != nil {
			p.Close()
			return nil, err
		}
	}
	if err := p.WaitMembers(opts.Members, processStartTimeout); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// spawn starts one child and completes the PDC_LISTENING handshake.
func (p *ProcessDeployment) spawn(args ...string) (*child, error) {
	if p.opts.Metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	cmd := osexec.Command(p.opts.BinPath, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if p.opts.Stderr != nil {
		cmd.Stderr = p.opts.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, waitErr: make(chan error, 1)}
	// One goroutine owns Wait (reaps the child); the handshake below
	// reads stdout until the listen line or EOF. A watchdog kills a
	// child that hangs before printing, which EOFs the scanner.
	go func() { c.waitErr <- cmd.Wait() }()
	handshake := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "PDC_LISTENING "); ok {
				c.addr = strings.TrimSpace(rest)
				if !p.opts.Metrics {
					break
				}
				continue
			}
			if rest, ok := strings.CutPrefix(line, "PDC_METRICS "); ok {
				c.metricsAddr = strings.TrimSpace(rest)
				break
			}
		}
		if c.addr == "" {
			handshake <- fmt.Errorf("core: child exited before PDC_LISTENING handshake")
			return
		}
		handshake <- nil
		// Keep draining so a chatty child can never block on stdout.
		for sc.Scan() {
		}
	}()
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		for waited := time.Duration(0); waited < processStartTimeout; waited += 50 * time.Millisecond {
			select {
			case <-watchdogDone:
				return
			default:
			}
			telemetry.WallSleep.Sleep(50 * time.Millisecond)
		}
		_ = cmd.Process.Kill()
	}()
	if err := <-handshake; err != nil {
		_ = cmd.Process.Kill()
		<-c.waitErr
		return nil, err
	}
	return c, nil
}

// Spawn adds one member process (a join: the catalog rebalances and
// the joiner pulls its regions). Returns its serving address.
func (p *ProcessDeployment) Spawn() (string, error) {
	c, err := p.spawn(
		"-join", p.catalogAddr, "-addr", "127.0.0.1:0",
		"-heartbeat", processHeartbeat.String(),
	)
	if err != nil {
		return "", fmt.Errorf("core: spawn member: %w", err)
	}
	p.mu.Lock()
	p.members = append(p.members, c)
	p.mu.Unlock()
	return c.addr, nil
}

// CatalogAddr returns the catalog's TCP address.
func (p *ProcessDeployment) CatalogAddr() string { return p.catalogAddr }

// MemberAddrs lists the live members' serving addresses in spawn order.
func (p *ProcessDeployment) MemberAddrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	addrs := make([]string, len(p.members))
	for i, c := range p.members {
		addrs[i] = c.addr
	}
	return addrs
}

// MetricsAddr returns the metrics address of the member serving addr
// ("" when metrics are off); "catalog" names the catalog process.
func (p *ProcessDeployment) MetricsAddr(addr string) string {
	if addr == "catalog" {
		return p.catalog.metricsAddr
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.members {
		if c.addr == addr {
			return c.metricsAddr
		}
	}
	return ""
}

// Kill SIGKILLs the member serving addr — no goodbye, no flush; the
// catalog finds out through the broken control connection or the
// heartbeat timeout, and failover must keep answers exact.
func (p *ProcessDeployment) Kill(addr string) error {
	p.mu.Lock()
	var victim *child
	for i, c := range p.members {
		if c.addr == addr {
			victim = c
			p.members = append(p.members[:i], p.members[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	if victim == nil {
		return fmt.Errorf("core: no member at %s", addr)
	}
	_ = victim.cmd.Process.Kill()
	<-victim.waitErr
	return nil
}

// Session opens a catalog-aware client session over TCP, configured
// for a live cluster: wall-clock call timeouts and paced retries.
func (p *ProcessDeployment) Session() (*cluster.Session, error) {
	return cluster.DialSession(cluster.SessionOptions{
		Net:         cluster.TCPNetwork{},
		CatalogAddr: p.catalogAddr,
		CallTimeout: 10 * time.Second,
		MaxAttempts: 60,
		RetryWait:   50 * time.Millisecond,
		Sleeper:     telemetry.WallSleep,
		Clock:       telemetry.Wall,
	})
}

// Drain retires the member serving addr through the catalog and waits
// for its process to exit.
func (p *ProcessDeployment) Drain(addr string, timeout time.Duration) error {
	s, err := p.Session()
	if err != nil {
		return err
	}
	defer s.Close()
	v, err := s.FetchView()
	if err != nil {
		return err
	}
	id := cluster.MemberID(-1)
	for _, mi := range v.Members {
		if mi.Addr == addr {
			id = mi.ID
			break
		}
	}
	if id < 0 {
		return fmt.Errorf("core: no member at %s in committed view", addr)
	}
	if err := s.Drain(id); err != nil {
		return err
	}
	p.mu.Lock()
	var victim *child
	for i, c := range p.members {
		if c.addr == addr {
			victim = c
			p.members = append(p.members[:i], p.members[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	if victim == nil {
		return fmt.Errorf("core: no member process at %s", addr)
	}
	select {
	case <-victim.waitErr:
		return nil
	case <-wallAfter(timeout):
		_ = victim.cmd.Process.Kill()
		<-victim.waitErr
		return fmt.Errorf("core: member %s did not exit %v after drain", addr, timeout)
	}
}

// wallAfter is a telemetry-seam replacement for time.After (the
// nondeterminism contract keeps raw timers out of production packages).
func wallAfter(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		telemetry.WallSleep.Sleep(d)
		close(ch)
	}()
	return ch
}

// WaitMembers polls the committed view until it holds n members.
func (p *ProcessDeployment) WaitMembers(n int, timeout time.Duration) error {
	s, err := p.Session()
	if err != nil {
		return err
	}
	defer s.Close()
	const poll = 20 * time.Millisecond
	for waited := time.Duration(0); ; waited += poll {
		v, err := s.FetchView()
		if err == nil && len(v.Members) == n {
			return nil
		}
		if waited >= timeout {
			if err != nil {
				return fmt.Errorf("core: cluster view unavailable after %v: %w", timeout, err)
			}
			return fmt.Errorf("core: %d members in view after %v, want %d", len(v.Members), timeout, n)
		}
		telemetry.WallSleep.Sleep(poll)
	}
}

// Close SIGKILLs every child and reaps them.
func (p *ProcessDeployment) Close() {
	p.mu.Lock()
	members := p.members
	p.members = nil
	p.mu.Unlock()
	for _, c := range members {
		_ = c.cmd.Process.Kill()
	}
	for _, c := range members {
		<-c.waitErr
	}
	if p.catalog != nil {
		_ = p.catalog.cmd.Process.Kill()
		<-p.catalog.waitErr
	}
}

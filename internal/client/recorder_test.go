// White-box tests for the client-side flight-recorder wiring: busy
// pushback and redial recovery must leave breadcrumbs in an installed
// recorder, and an uninstalled recorder must stay a no-op.
package client

import (
	"errors"
	"testing"

	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

// TestBusyBackoffRecordsEvent: every busy pushback records EvBusy with
// the server rank, attempt number, and the chosen backoff wait.
func TestBusyBackoffRecordsEvent(t *testing.T) {
	c, _ := newBackoffClient(t)
	rec := telemetry.NewRecorder(16, nil)
	c.SetRecorder(rec)
	attempts := []int{0}
	wait, err := c.busyBackoff(busyReply(0), attempts)
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Snapshot()
	if len(events) != 1 {
		t.Fatalf("recorded %d events, want 1", len(events))
	}
	e := events[0]
	if e.Kind != telemetry.EvBusy {
		t.Fatalf("kind = %s, want busy", e.Kind)
	}
	if e.Srv != 0 || e.A != 1 || e.B != int64(wait) {
		t.Errorf("event = srv=%d a=%d b=%d, want srv=0 a=1 b=%d", e.Srv, e.A, e.B, wait)
	}
	// A second attempt bumps the attempt number.
	if _, err := c.busyBackoff(busyReply(0), attempts); err != nil {
		t.Fatal(err)
	}
	events = rec.Snapshot()
	if len(events) != 2 || events[1].A != 2 {
		t.Fatalf("second busy event = %+v", events)
	}
}

// TestEnsureConnRecordsRedial: a successful reconnection records
// EvRedial for the recovered rank; a failed one records nothing.
func TestEnsureConnRecordsRedial(t *testing.T) {
	c, _ := newBackoffClient(t)
	rec := telemetry.NewRecorder(16, nil)
	c.SetRecorder(rec)

	// Mark the connection dead with no redial installed: typed failure,
	// no event.
	c.mu.Lock()
	c.downErr[0] = errors.New("connection lost")
	c.mu.Unlock()
	if err := c.ensureConn(0); err == nil {
		t.Fatal("ensureConn succeeded without a redial function")
	}
	if got := len(rec.Snapshot()); got != 0 {
		t.Fatalf("failed recovery recorded %d events", got)
	}

	// Install a redial seam and recover: exactly one EvRedial.
	c.SetRedial(func(srv int) (transport.Conn, error) {
		local, _ := transport.Pipe()
		return local, nil
	})
	if err := c.ensureConn(0); err != nil {
		t.Fatal(err)
	}
	events := rec.Snapshot()
	if len(events) != 1 || events[0].Kind != telemetry.EvRedial || events[0].Srv != 0 {
		t.Fatalf("events after recovery = %+v, want one redial for srv 0", events)
	}

	// Healthy connection: ensureConn is a no-op and records nothing new.
	if err := c.ensureConn(0); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Snapshot()); got != 1 {
		t.Fatalf("no-op recovery recorded extra events (%d total)", got)
	}
}

// TestRecorderUninstalledIsNoop: the recovery paths must tolerate a nil
// recorder (the default) — Record is nil-safe by contract.
func TestRecorderUninstalledIsNoop(t *testing.T) {
	c, _ := newBackoffClient(t)
	if _, err := c.busyBackoff(busyReply(0), []int{0}); err != nil {
		t.Fatal(err)
	}
	c.SetRedial(func(srv int) (transport.Conn, error) {
		local, _ := transport.Pipe()
		return local, nil
	})
	c.mu.Lock()
	c.downErr[0] = errors.New("connection lost")
	c.mu.Unlock()
	if err := c.ensureConn(0); err != nil {
		t.Fatal(err)
	}
}

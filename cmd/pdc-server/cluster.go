// Cluster modes: `pdc-server -catalog` runs the placement catalog;
// `pdc-server -join <catalog-addr>` runs a data member that joins it.
// A multi-process deployment is one catalog plus N members:
//
//	pdc-server -catalog -addr 127.0.0.1:7000 &
//	pdc-server -join 127.0.0.1:7000 -addr 127.0.0.1:7101 &
//	pdc-server -join 127.0.0.1:7000 -addr 127.0.0.1:7102 &
//	pdc-server -join 127.0.0.1:7000 -addr 127.0.0.1:7103 &
//	pdc-query run -catalog 127.0.0.1:7000 "select count where Energy > 2.0"
//
// Members start empty: a client imports a dataset through the catalog
// (see cluster.Session.Import and fault.RunClusterChaos), which writes
// every region's extents to all R placement owners. Like the standalone
// daemon, both modes print the readiness handshake (announce).
package main

import (
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdcquery/internal/cluster"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/transport"
)

// runCatalog serves the catalog until SIGINT/SIGTERM. Heartbeat expiry
// sweeps run on wall time through the telemetry seams (the only
// sanctioned clock); everything else is driven by member and client
// messages.
func runCatalog(addr string, seed uint64, r int, hbTimeout time.Duration, metricsAddr string, recorderEvents int) {
	cat := cluster.NewCatalog(cluster.CatalogConfig{
		Seed:               seed,
		R:                  r,
		Clock:              telemetry.Wall,
		HeartbeatTimeoutNs: hbTimeout.Nanoseconds(),
		Log:                slog.New(slog.NewTextHandler(os.Stderr, nil)),
		Recorder:           telemetry.NewRecorder(recorderEvents, telemetry.Wall),
	})
	l, err := transport.Listen(addr)
	if err != nil {
		log.Fatalf("pdc-server: catalog listen: %v", err)
	}
	mAddr := ""
	if metricsAddr != "" {
		mAddr = serveMetrics(metricsAddr, "catalog", cat.Metrics, cat.Recorder)
	}
	if hbTimeout > 0 {
		sweep := hbTimeout / 4
		if sweep < 10*time.Millisecond {
			sweep = 10 * time.Millisecond
		}
		go func() {
			for {
				telemetry.WallSleep.Sleep(sweep)
				cat.CheckExpiry(telemetry.Wall.Now())
			}
		}()
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("pdc-server catalog: %v, shutting down", s)
		_ = l.Close()
		cat.Close()
	}()

	announce(l.Addr(), mAddr)
	log.Printf("pdc-server catalog serving on %s (R=%d, heartbeat timeout %v)", l.Addr(), r, hbTimeout)
	for {
		conn, err := l.Accept()
		if err != nil {
			break
		}
		go cat.ServeConn(conn)
	}
	log.Printf("pdc-server catalog: bye")
}

// runMember joins the catalog and serves queries until SIGINT/SIGTERM
// or until the catalog commits a view without it (a drain).
func runMember(catalogAddr, addr string, workers, queueDepth int, heartbeat time.Duration, metricsAddr string, recorderEvents int, queryLog bool) {
	opts := cluster.MemberOptions{
		Net:            cluster.TCPNetwork{},
		CatalogAddr:    catalogAddr,
		ListenAddr:     addr,
		Workers:        workers,
		QueueDepth:     queueDepth,
		Clock:          telemetry.Wall,
		HeartbeatNs:    heartbeat.Nanoseconds(),
		Sleeper:        telemetry.WallSleep,
		RecorderEvents: recorderEvents,
	}
	if queryLog {
		opts.Log = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	m, err := cluster.StartMember(opts)
	if err != nil {
		log.Fatalf("pdc-server: join %s: %v", catalogAddr, err)
	}
	mAddr := ""
	if metricsAddr != "" {
		mAddr = serveMetrics(metricsAddr, fmt.Sprintf("member %d", m.ID()), m.Server().Metrics, m.Server().Recorder)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	announce(m.Addr(), mAddr)
	log.Printf("pdc-server member %d serving on %s (catalog %s)", m.ID(), m.Addr(), catalogAddr)
	select {
	case <-m.Done():
		// Drained (or the catalog connection died): the member already
		// tore itself down.
		log.Printf("pdc-server member %d: left the cluster, bye", m.ID())
	case s := <-sigs:
		log.Printf("pdc-server member %d: %v, shutting down", m.ID(), s)
		m.Close()
	}
}

// Command wlserved hosts a fleet of simulated PCM devices behind an
// HTTP/JSON API — one tenant per device, thousands of devices per
// process. Devices are paged between memory and the spill directory
// under an LRU budget, and every acknowledged write batch is durable
// before the response leaves the process: kill -9 the daemon, restart
// it over the same spill directory, and every device resumes
// byte-identical to an uninterrupted run.
//
// Example:
//
//	wlserved -addr :8080 -spill /var/lib/wlserved -max-resident 256
//
// See EXPERIMENTS.md § wlserved for the API and durability contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"wlreviver/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wlserved:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		spill       = flag.String("spill", "", "spill directory for device state (required)")
		maxDevices  = flag.Int("max-devices", 0, "device capacity (0 = unlimited)")
		maxResident = flag.Int("max-resident", 64, "in-memory engine budget (LRU)")
		mailbox     = flag.Int("mailbox", 32, "per-device request queue bound")
		ckptEvery   = flag.Uint64("ckpt-every", 1<<18, "durability checkpoint period in acked writes per device")
		noSync      = flag.Bool("no-sync", false, "skip fsync (forfeits the kill -9 durability contract)")
	)
	flag.Parse()
	if *spill == "" {
		return errors.New("-spill is required")
	}

	fleet, err := serve.Open(serve.Config{
		Dir:             *spill,
		MaxDevices:      *maxDevices,
		MaxResident:     *maxResident,
		MailboxDepth:    *mailbox,
		CheckpointEvery: *ckptEvery,
		DisableSync:     *noSync,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fleet.Close()
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(fleet)}

	// Serve until SIGINT/SIGTERM, then drain the listener and park the
	// fleet (checkpoint every resident device) so the next start needs
	// no journal replay.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	h := fleet.Health()
	fmt.Printf("wlserved: listening on %s (spill %s, %d devices recovered)\n", ln.Addr(), *spill, h.Devices)

	var serveErr error
	select {
	case sig := <-sigc:
		fmt.Printf("wlserved: %v, shutting down\n", sig)
		serveErr = srv.Shutdown(context.Background())
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			serveErr = err
		}
	}
	if err := fleet.Close(); err != nil && serveErr == nil {
		serveErr = err
	}
	return serveErr
}

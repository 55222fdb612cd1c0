// fpserve serves floorplan area optimization over an HTTP JSON API, with a
// content-addressed cross-request result cache.
//
// Example:
//
//	fpserve -addr localhost:8080 -cache-mb 64 -workers 4 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/optimize -d '{
//	  "tree": {"kind":"vslice","children":[
//	    {"kind":"leaf","module":"a"},{"kind":"leaf","module":"b"}]},
//	  "library": {"a":[{"W":4,"H":7},{"W":7,"H":4}], "b":[{"W":3,"H":3}]},
//	  "options": {"k1": 20}
//	}'
//	curl -s localhost:8080/v1/stats
//
// The same request twice is answered from the cache the second time,
// byte-identically (see the `runtime.cache` field flip from "miss" to
// "hit"). `-addr :0` picks a free port; `-addr-file` publishes the bound
// address for scripts.
//
// Observability: GET /metrics serves a Prometheus text exposition, every
// request emits one structured access-log record on stderr (tune with
// -log-level and -log-format), and responses carry the request's W3C trace
// ID — propagated from a client traceparent header when one was sent.
//
// Cluster mode: start every node with the same -peers list and its own
// -self URL, e.g.
//
//	fpserve -addr localhost:8081 -self http://localhost:8081 \
//	  -peers http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// Each cache key then has one owning node on a consistent-hash ring;
// requests landing elsewhere are forwarded to the owner (so a repeated
// fingerprint costs one optimizer run cluster-wide), hot keys replicate to
// every node's local cache, and a down peer degrades to local computation.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"floorplan/internal/cache"
	"floorplan/internal/cliutil"
	"floorplan/internal/cluster"
	"floorplan/internal/server"
	"floorplan/internal/substore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpserve: ")
	var (
		addr       = flag.String("addr", "localhost:8080", "listen address (use :0 for a random port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers    = flag.Int("workers", 0, "concurrent optimizations (0 = all CPUs)")
		queue      = flag.Int("queue", 0, "requests allowed to wait for a worker before shedding (0 = 4x workers)")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		maxLimit   = flag.Int64("max-limit", 0, "ceiling on per-request stored-implementation budgets (0 = none)")
		cacheMB    = flag.Int64("cache-mb", 64, "result cache budget in MiB (0 disables the cache)")
		cacheShard = flag.Int("cache-shards", 16, "cache shard count")
		subBytes   = flag.Int64("subtree-cache-bytes", 64<<20, "subtree result store budget in bytes (0 disables subtree memoization)")
		drain      = flag.Duration("drain", 15*time.Second, "graceful shutdown drain deadline")
		slowThresh = flag.Duration("slow-threshold", 0, "capture requests at least this slow into GET /debug/slow (0 disables)")
		peers      = flag.String("peers", "", "comma-separated base URLs of every cluster node, including this one (empty = single-node)")
		self       = flag.String("self", "", "this node's base URL exactly as spelled in -peers (required with -peers)")
		nodeID     = flag.String("node-id", "", "display id for this node in stats/logs (default: -self in cluster mode; none single-node)")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per backend on the placement ring (0 = 128)")
		hotKeys    = flag.Int("hot-keys", 0, "top-K hot keys replicated to every node's cache (0 = 32, negative disables)")
		peerTO     = flag.Duration("peer-timeout", 0, "per-hop timeout for one peer forward attempt (0 = 2s)")
		statsTO    = flag.Duration("cluster-stats-timeout", 0, "per-peer timeout for one GET /v1/cluster/stats fan-out fetch (0 = 1s)")
		profP99    = flag.Duration("profile-trigger-p99", 0, "arm the profiling flight recorder: capture CPU+heap profiles when a sampling window's p99 crosses this (0 disables)")
		profRing   = flag.Int("profile-ring", 0, "profile capture ring size (0 = 4)")
		profEvery  = flag.Duration("profile-interval", 0, "flight recorder sampling period (0 = 5s)")
		tf         cliutil.TelemetryFlags
	)
	tf.Register(flag.CommandLine)
	flag.Parse()

	// The server always collects telemetry — GET /metrics must be populated
	// for every instance, not only the ones started with a telemetry flag.
	// The debug listener exposes it live, the report flushes at shutdown.
	col := tf.CollectorIf(true)
	logger, err := tf.Logger()
	if err != nil {
		log.Fatal(err)
	}
	if err := tf.StartDebug(col); err != nil {
		log.Fatal(err)
	}

	var store *cache.Cache
	if *cacheMB > 0 {
		var err error
		store, err = cache.New(cache.Config{
			MaxBytes:  *cacheMB << 20,
			Shards:    *cacheShard,
			Telemetry: col,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	var sub *substore.Store
	if *subBytes > 0 {
		var err error
		sub, err = substore.New(substore.Config{
			MaxBytes:  *subBytes,
			Telemetry: col,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	var cl *cluster.Cluster
	if *peers != "" {
		if *self == "" {
			log.Fatal("-peers requires -self (this node's URL as spelled in the peer list)")
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:        *self,
			Peers:       peerList,
			NodeID:      *nodeID,
			VNodes:      *vnodes,
			HotK:        *hotKeys,
			PeerTimeout: *peerTO,
			Telemetry:   col,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxMemoryLimit: *maxLimit,
		Cache:          store,
		Substore:       sub,
		Telemetry:      col,
		Logger:         logger,
		SlowThreshold:  *slowThresh,
		NodeID:         *nodeID,
		Cluster:        cl,

		ClusterStatsTimeout: *statsTO,
		ProfileTriggerP99:   *profP99,
		ProfileRing:         *profRing,
		ProfileInterval:     *profEvery,
		// Span retention grows without bound on a long-lived server, so
		// only a run that will export a trace keeps them.
		KeepSpans: tf.Trace != "",
	})
	if err != nil {
		log.Fatal(err)
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatal(err)
	}
	if cl != nil {
		log.Printf("listening on http://%s (cache %d MiB, workers %d, cluster node %s of %d peers)",
			bound, *cacheMB, *workers, cl.NodeID(), len(cl.Ring().Nodes()))
	} else {
		log.Printf("listening on http://%s (cache %d MiB, workers %d)", bound, *cacheMB, *workers)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("draining (up to %s)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := tf.Flush(col); err != nil {
		log.Fatal(err)
	}
}

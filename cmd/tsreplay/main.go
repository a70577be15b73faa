// Command tsreplay re-runs a captured query workload (see tsquery
// -capture) against a database and verifies that every query still
// returns the bit-identical answer set, then reports per-query and
// aggregate effort deltas — a regression diff between the capture-time
// run and today's binary, options, or data layout.
//
// Usage:
//
//	tsreplay -capture queries.tscap -db stocks.tsq
//	tsreplay -capture queries.tscap -data stocks.csv -set naiveverify=true
//	tsreplay -capture queries.tscap -db stocks.tsq -workers 4 -json
//
// Exit status: 0 when every query replayed with a matching digest, 1 on
// digest mismatches or replay errors, 2 on a corrupt capture file or
// usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tsq"
	"tsq/internal/csvio"
	"tsq/internal/obs"
	"tsq/internal/obs/capture"
)

func main() {
	os.Exit(run())
}

// overrides accumulates repeated -set key=value flags into a mutation
// of every replayed query's options.
type overrides struct {
	specs []string
	apply []func(*tsq.QueryOptions)
}

func (o *overrides) String() string { return strings.Join(o.specs, ",") }

func (o *overrides) Set(s string) error {
	key, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	switch key {
	case "naiveverify", "ordering":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("%s wants a boolean, got %q", key, val)
		}
		o.apply = append(o.apply, func(q *tsq.QueryOptions) {
			if key == "naiveverify" {
				q.NaiveVerify = b
			} else {
				q.UseOrdering = b
			}
		})
	case "algo":
		var alg tsq.Algorithm
		switch val {
		case "mt":
			alg = tsq.MTIndex
		case "st":
			alg = tsq.STIndex
		case "seq":
			alg = tsq.SeqScan
		case "auto":
			alg = tsq.Auto
		default:
			return fmt.Errorf("algo wants mt|st|seq|auto, got %q", val)
		}
		o.apply = append(o.apply, func(q *tsq.QueryOptions) { q.Algorithm = alg })
	default:
		return fmt.Errorf("unknown option %q (have naiveverify, ordering, algo)", key)
	}
	o.specs = append(o.specs, s)
	return nil
}

func run() int {
	var ovr overrides
	var (
		capturePath = flag.String("capture", "", "capture file to replay (required)")
		data        = flag.String("data", "", "CSV dataset to replay against (this or -db is required)")
		dbPath      = flag.String("db", "", "a .tsq database file to replay against")
		workers     = flag.Int("workers", 0, "override Workers on every replayed query (0 keeps the captured value)")
		limit       = flag.Int64("limit", 0, "replay at most this many queries (0 = all)")
		shards      = flag.Int("shards", 0, "rebuild the -data dataset with this many shards before replaying (answer digests are shard-layout independent)")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON instead of text")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Var(&ovr, "set", "override a query option on every replayed query, e.g. -set naiveverify=true (repeatable)")
	flag.Parse()
	if *version {
		fmt.Println("tsreplay", obs.ReadBuildSection())
		return 0
	}
	if *capturePath == "" {
		fmt.Fprintln(os.Stderr, "tsreplay: -capture is required")
		return 2
	}

	var db *tsq.DB
	switch {
	case *data != "" && *dbPath != "":
		fmt.Fprintln(os.Stderr, "tsreplay: -data and -db are exclusive")
		return 2
	case *dbPath != "":
		if *shards > 1 {
			fmt.Fprintln(os.Stderr, "tsreplay: -shards only applies to -data (a .tsq file carries its own shard layout)")
			return 2
		}
		var err error
		db, err = tsq.OpenFile(*dbPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsreplay: %v\n", err)
			return 2
		}
		defer func() { _ = db.Close() }()
	case *data != "":
		names, ss, err := csvio.ReadFile(*data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsreplay: %v\n", err)
			return 2
		}
		db, err = tsq.Open(ss, names, tsq.Options{Shards: *shards})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsreplay: %v\n", err)
			return 2
		}
	default:
		fmt.Fprintln(os.Stderr, "tsreplay: -data or -db is required")
		return 2
	}

	opts := tsq.ReplayOptions{Limit: *limit}
	if len(ovr.apply) > 0 || *workers > 0 {
		w := *workers
		apply := ovr.apply
		opts.Override = func(q *tsq.QueryOptions) {
			for _, f := range apply {
				f(q)
			}
			if w > 0 {
				q.Workers = w
			}
		}
	}

	rep, err := tsq.ReplayFile(context.Background(), db, *capturePath, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsreplay: %v\n", err)
		if errors.Is(err, capture.ErrCorrupt) && rep != nil {
			fmt.Fprintf(os.Stderr, "tsreplay: capture is corrupt after %d records\n", rep.Records)
		}
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "tsreplay: %v\n", err)
			return 2
		}
	} else {
		rep.WriteText(os.Stdout)
	}
	if !rep.OK() {
		return 1
	}
	return 0
}

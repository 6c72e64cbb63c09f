package main

// The daemon's HTTP surface: the mux, the data endpoints (/push, /sample,
// /memory, /stats) and the admin endpoints (/resize, /snapshot, /autoscale;
// /migrate lives in cluster.go, /metrics in telemetry.go, /trace in
// trace.go), with the JSON helpers they share.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"nodesampling/internal/autoscale"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/shard"
)

// maxPushBody bounds a /push request body and maxPushIDs caps the ids one
// request may carry (the wire protocol's MaxBatch): a flood has to arrive
// as many requests, and no single HTTP push can monopolise shard workers
// longer than a framed batch could.
const (
	maxPushBody = 1 << 20
	maxPushIDs  = netgossip.MaxBatch
)

// maxSampleN bounds how many samples one /sample request may ask for.
const maxSampleN = 65536

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	// The mutating admin endpoints are always behind the bearer token when
	// one is configured; the data and read surface joins them only under
	// -admin-token-all (an overlay usually needs /push and /sample open).
	readOpen := func(h http.HandlerFunc) http.HandlerFunc {
		if d.adminTokenAll {
			return d.requireToken(h)
		}
		return h
	}
	mux.HandleFunc("POST /push", readOpen(d.handlePush))
	mux.HandleFunc("GET /sample", readOpen(d.handleSample))
	mux.HandleFunc("GET /memory", readOpen(d.handleMemory))
	mux.HandleFunc("GET /stats", readOpen(d.handleStats))
	mux.HandleFunc("GET /metrics", readOpen(d.handleMetrics))
	mux.HandleFunc("GET /trace", d.requireToken(d.handleTrace))
	mux.HandleFunc("POST /resize", d.requireToken(d.handleResize))
	mux.HandleFunc("POST /migrate", d.requireToken(d.handleMigrate))
	mux.HandleFunc("POST /snapshot", d.requireToken(d.handleSnapshot))
	mux.HandleFunc("POST /autoscale", d.requireToken(d.handleAutoscale))
	if d.pprofEnabled {
		d.mountPprof(mux)
	}
	return mux
}

// maxAdminBody bounds an admin-endpoint request body: the legitimate
// payloads are a handful of small fields.
const maxAdminBody = 1024

// decodeAdminJSON parses a small admin request body strictly: unknown
// fields, trailing data, oversized bodies and malformed JSON are all
// client errors (the caller answers 400), never 500s or panics.
func decodeAdminJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxAdminBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("body exceeds %d bytes", mbe.Limit)
		}
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// conflict answers 409 with a Retry-After hint: the admin plane is busy
// with another resize or snapshot, and the client should simply try again.
func conflict(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusConflict, msg)
}

// answerAdmin renders a gated operation's outcome: 409 when the gate was
// busy, failStatus when the operation itself failed, done otherwise.
func answerAdmin(w http.ResponseWriter, err error, failStatus int, done map[string]any) {
	switch {
	case errors.Is(err, errAdminBusy):
		conflict(w, "another resize or snapshot is in progress")
	case err != nil:
		httpError(w, failStatus, err.Error())
	default:
		writeJSON(w, done)
	}
}

// jsonID carries a 64-bit id through JSON losslessly: it renders as a
// decimal string and accepts both strings and plain numbers on input.
// Doubles (the number type of JavaScript and most JSON parsers) corrupt
// integers above 2^53, and node ids are full-range 64-bit hashes.
type jsonID uint64

func (v jsonID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + strconv.FormatUint(uint64(v), 10) + `"`), nil
}

func (v *jsonID) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	u, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("id %s: %w", string(data), err)
	}
	*v = jsonID(u)
	return nil
}

func toJSONIDs(ids []uint64) []jsonID {
	out := make([]jsonID, len(ids))
	for i, id := range ids {
		out[i] = jsonID(id)
	}
	return out
}

func (d *daemon) handlePush(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDs []jsonID `json:"ids"`
	}
	body := http.MaxBytesReader(w, r.Body, maxPushBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, "no ids")
		return
	}
	if len(req.IDs) > maxPushIDs {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d ids exceeds limit %d", len(req.IDs), maxPushIDs))
		return
	}
	ids := make([]uint64, len(req.IDs))
	for i, id := range req.IDs {
		ids[i] = uint64(id)
	}
	if err := d.ingestRouted(ids, "http"); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, map[string]any{"accepted": len(ids)})
}

func (d *daemon) handleSample(w http.ResponseWriter, r *http.Request) {
	// Every present n must parse as a plain decimal in [1, maxSampleN]:
	// non-numeric garbage, n <= 0, out-of-int-range digits (Atoi reports
	// ErrRange) and an explicitly empty "?n=" all answer 400 with a JSON
	// error — never a 200 with a surprising body, never a panic. Only a
	// genuinely absent parameter takes the default of one sample.
	n := 1
	if vals, present := r.URL.Query()["n"]; present {
		v, err := strconv.Atoi(vals[0])
		if err != nil || v < 1 || v > maxSampleN {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("n must be a decimal in [1, %d], got %q", maxSampleN, vals[0]))
			return
		}
		n = v
	}
	began := time.Now()
	// Clustered daemons answer over the union of member memories; the
	// standalone path is the pool untouched.
	samples := d.sampleN(n)
	d.latency.Sample.ObserveSince(began)
	if len(samples) == 0 {
		httpError(w, http.StatusServiceUnavailable, "pool is empty")
		return
	}
	writeJSON(w, map[string]any{"samples": toJSONIDs(samples)})
}

func (d *daemon) handleMemory(w http.ResponseWriter, r *http.Request) {
	mem := d.pool.Memory()
	writeJSON(w, map[string]any{"memory": toJSONIDs(mem), "size": len(mem)})
}

// handleResize serves the elastic-plane admin surface: a live
// re-partition of the pool to the requested shard count. A request racing
// another resize (manual or autoscaler-issued) or a snapshot write gets a
// clean 409 + Retry-After instead of queueing on the pool's locks.
func (d *daemon) handleResize(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Shards *int `json:"shards"`
	}
	if err := decodeAdminJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if req.Shards == nil {
		httpError(w, http.StatusBadRequest, `missing "shards"`)
		return
	}
	if *req.Shards < 1 || *req.Shards > shard.MaxShards {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("shards must be in [1, %d]", shard.MaxShards))
		return
	}
	epoch, shards, err := d.resize("admin", *req.Shards, false)
	answerAdmin(w, err, http.StatusServiceUnavailable, map[string]any{"shards": shards, "epoch": epoch})
}

// handleSnapshot writes a durable snapshot to -snapshot-path on demand.
func (d *daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if d.snapshotPath == "" {
		httpError(w, http.StatusBadRequest, "no -snapshot-path configured")
		return
	}
	n, err := d.snapshot(false)
	answerAdmin(w, err, http.StatusInternalServerError, map[string]any{"path": d.snapshotPath, "bytes": n})
}

// handleAutoscale enables, disables or tunes the autoscaling controller at
// runtime. The body is a partial update — absent fields keep their current
// value — and an empty object just reports the current state:
//
//	{"enabled":true,"min":2,"max":32,
//	 "grow_threshold":0.5,"shrink_threshold":0.05,"cooldown_ms":3000}
func (d *daemon) handleAutoscale(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Enabled         *bool    `json:"enabled"`
		Min             *int     `json:"min"`
		Max             *int     `json:"max"`
		GrowThreshold   *float64 `json:"grow_threshold"`
		ShrinkThreshold *float64 `json:"shrink_threshold"`
		CooldownMS      *int64   `json:"cooldown_ms"`
	}
	if err := decodeAdminJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	t := autoscale.Tuning{
		Enabled:         req.Enabled,
		Min:             req.Min,
		Max:             req.Max,
		GrowThreshold:   req.GrowThreshold,
		ShrinkThreshold: req.ShrinkThreshold,
	}
	if req.CooldownMS != nil {
		// Bound before converting: a huge millisecond count would wrap the
		// int64 duration and could land on a small positive value, slipping
		// garbage past Tune's non-negative check.
		if *req.CooldownMS < 0 || *req.CooldownMS > math.MaxInt64/int64(time.Millisecond) {
			httpError(w, http.StatusBadRequest, "cooldown_ms out of range")
			return
		}
		cd := time.Duration(*req.CooldownMS) * time.Millisecond
		t.Cooldown = &cd
	}
	st, err := d.ctrl.Tune(t)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	d.logger.Info("autoscale tuned", "enabled", st.Enabled, "min", st.Min, "max", st.Max,
		"grow_threshold", st.GrowThreshold, "shrink_threshold", st.ShrinkThreshold,
		"cooldown", st.Cooldown)
	writeJSON(w, autoscaleJSON(st))
}

// autoscaleJSON renders controller state for /autoscale and /stats.
func autoscaleJSON(st autoscale.State) map[string]any {
	return map[string]any{
		"enabled":               st.Enabled,
		"min":                   st.Min,
		"max":                   st.Max,
		"interval_ms":           st.Interval.Milliseconds(),
		"grow_threshold":        st.GrowThreshold,
		"shrink_threshold":      st.ShrinkThreshold,
		"cooldown_ms":           st.Cooldown.Milliseconds(),
		"load_ewma":             st.EWMA,
		"ticks":                 st.Ticks,
		"resizes":               st.Resizes,
		"cooldown_remaining_ms": st.CooldownRemaining.Milliseconds(),
		"last_decision":         decisionJSON(st.Last),
		"last_resize":           decisionJSON(st.LastResize),
	}
}

// decisionJSON renders one controller decision.
func decisionJSON(d autoscale.Decision) map[string]any {
	out := map[string]any{
		"action":   string(d.Action),
		"reason":   d.Reason,
		"from":     d.From,
		"to":       d.To,
		"pressure": d.Pressure,
		"ewma":     d.EWMA,
	}
	if !d.At.IsZero() {
		out["unix_ms"] = d.At.UnixMilli()
	}
	if d.Err != "" {
		out["error"] = d.Err
	}
	return out
}

func (d *daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	st := d.pool.Stats()
	uptime := time.Since(d.start).Seconds()
	throughput := 0.0
	if uptime > 0 {
		throughput = float64(st.Processed) / uptime
	}
	var clusterStats any
	if d.cluster != nil {
		clusterStats = d.cluster.Stats()
	}
	writeJSON(w, map[string]any{
		"cluster":                   clusterStats,
		"uptime_seconds":            uptime,
		"processed":                 st.Processed,
		"dropped":                   st.Dropped,
		"emit_dropped":              st.EmitDropped,
		"throughput_ids_per_second": throughput,
		"stream_connections":        d.streamConns(),
		"shard_count":               len(st.Shards),
		"strategy":                  d.pool.Strategy(),
		"map_epoch":                 st.Epoch,
		"restored":                  d.restored,
		"snapshot_bytes":            d.snapBytes.Load(),
		"snapshot_unix":             d.snapUnix.Load(),
		"autoscale":                 autoscaleJSON(d.ctrl.State()),
		"shards":                    st.Shards,
		"subscribers":               st.Subscribers,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

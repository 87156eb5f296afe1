// Package apiv1 is Apollo's public, versioned wire contract: the JSON
// request/response shapes served by the HTTP/WebSocket gateway
// (cmd/apollo-gateway, apollod -gateway-addr) and consumed by apolloctl and
// external tooling. Everything that crosses the public edge is a named type
// in this package — no inline anonymous structs — so the wire shape is a
// reviewed, versioned API: field names are frozen for the life of v1 (the
// compatibility test fails on any rename), and breaking changes mean a new
// api/v2 package next to this one, not an edit here.
//
// The package imports only the standard library: it defines the contract
// and deliberately knows nothing about the engine that serves it.
package apiv1

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Version is the contract revision every path below is namespaced under.
const Version = "v1"

// PathPrefix namespaces every gateway route.
const PathPrefix = "/api/v1"

// Gateway routes. {metric} is a metric/topic name, e.g.
// "comp00.nvme0.capacity".
const (
	// PathQuery accepts POST QueryRequest and returns QueryResponse.
	PathQuery = PathPrefix + "/query"
	// PathTopics returns TopicsResponse (GET).
	PathTopics = PathPrefix + "/topics"
	// PathLatest is GET /api/v1/metrics/{metric}/latest returning Tuple.
	PathLatest = PathPrefix + "/metrics/{metric}/latest"
	// PathSubscribe is GET /api/v1/subscribe/{metric}: upgraded to a
	// WebSocket when the request carries an Upgrade header, otherwise served
	// as a Server-Sent-Events stream. Both deliver Frame values; ?after=N
	// (or the SSE Last-Event-ID header) resumes after stream ID N. A resume
	// point the broker's retention has already dropped starts at the oldest
	// retained entry. After that the stream IDs a subscription delivers are
	// contiguous: if retention overtakes the stream before entries could be
	// delivered, the subscription ends with a retryable "unavailable" error
	// frame rather than skipping them.
	PathSubscribe = PathPrefix + "/subscribe/{metric}"
	// PathRetention returns RetentionResponse (GET), archive tier stats.
	PathRetention = PathPrefix + "/retention"
	// PathHealthz is the liveness probe (GET, unauthenticated).
	PathHealthz = PathPrefix + "/healthz"
	// PathReadyz is the readiness probe (GET, unauthenticated): 200 while
	// serving, 503 once draining.
	PathReadyz = PathPrefix + "/readyz"
)

// LatestPath returns the concrete latest-value path for metric.
func LatestPath(metric string) string {
	return PathPrefix + "/metrics/" + metric + "/latest"
}

// SubscribePath returns the concrete subscription path for metric.
func SubscribePath(metric string) string {
	return PathPrefix + "/subscribe/" + metric
}

// Code is a machine-readable error class. Codes are part of the v1 contract:
// clients branch on Code (and Retryable), never on Message text.
type Code string

// v1 error codes.
const (
	// CodeBadRequest rejects malformed JSON, unknown fields, or invalid
	// query syntax.
	CodeBadRequest Code = "bad_request"
	// CodeUnauthorized rejects a missing or unknown bearer token.
	CodeUnauthorized Code = "unauthorized"
	// CodeRateLimited rejects a request that exhausted its principal's
	// token bucket; retry after the bucket refills.
	CodeRateLimited Code = "rate_limited"
	// CodeNoSuchMetric rejects a query or subscription against a metric the
	// backend does not serve.
	CodeNoSuchMetric Code = "no_such_metric"
	// CodeSlowConsumer closes a subscription whose bounded send queue
	// overflowed: the client fell too far behind and was evicted so it could
	// not block the bus. Reconnect (optionally resuming via ?after=) once
	// able to keep up.
	CodeSlowConsumer Code = "slow_consumer"
	// CodeDraining closes subscriptions and rejects requests while the
	// gateway shuts down gracefully; retry against a healthy instance.
	CodeDraining Code = "draining"
	// CodeUnavailable rejects a request the backend cannot serve right now
	// (e.g. retention stats on a gateway without an archive), and closes a
	// subscription whose stream retention overtook: entries were dropped
	// before they could be delivered. Reconnect, resuming via ?after= from
	// the last stream ID seen.
	CodeUnavailable Code = "unavailable"
	// CodeInternal reports an unexpected server-side failure.
	CodeInternal Code = "internal"
)

// HTTPStatus maps the code to its transport status.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnauthorized:
		return http.StatusUnauthorized
	case CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeNoSuchMetric:
		return http.StatusNotFound
	case CodeSlowConsumer:
		return http.StatusConflict
	case CodeDraining, CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Error is the machine-readable error envelope every non-2xx response body
// and every error Frame carries.
type Error struct {
	// Code classifies the failure.
	Code Code `json:"code"`
	// Message is human-readable detail; do not branch on it.
	Message string `json:"message"`
	// Retryable reports whether the same request can succeed later without
	// modification (after backoff, reconnect, or failover).
	Retryable bool `json:"retryable"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("apollo/%s: %s: %s (retryable=%v)", Version, e.Code, e.Message, e.Retryable)
}

// Errorf builds an Error envelope.
func Errorf(code Code, retryable bool, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), Retryable: retryable}
}

// QueryRequest is the body of POST /api/v1/query.
type QueryRequest struct {
	// Query is AQE SQL, e.g.
	// "SELECT MAX(Timestamp), metric FROM cluster.capacity".
	Query string `json:"query"`
}

// QueryResponse is the result set of a query: one row per result tuple,
// cells in column order.
type QueryResponse struct {
	Columns []string  `json:"columns"`
	Rows    [][]Value `json:"rows"`
}

// ValueKind discriminates a Value.
type ValueKind int

// Value kinds.
const (
	ValueInt ValueKind = iota
	ValueFloat
	ValueString
)

// Value is one query result cell. On the wire it is a native JSON scalar —
// an integer, a number, or a string — so consumers read rows as plain JSON;
// Kind survives a round trip (integers stay integers).
type Value struct {
	Kind  ValueKind
	Int   int64
	Float float64
	Str   string
}

// IntValue builds an integer cell.
func IntValue(v int64) Value { return Value{Kind: ValueInt, Int: v} }

// FloatValue builds a float cell.
func FloatValue(v float64) Value { return Value{Kind: ValueFloat, Float: v} }

// StringValue builds a string cell.
func StringValue(s string) Value { return Value{Kind: ValueString, Str: s} }

// String renders the cell.
func (v Value) String() string {
	switch v.Kind {
	case ValueInt:
		return strconv.FormatInt(v.Int, 10)
	case ValueFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	default:
		return v.Str
	}
}

// MarshalJSON emits the native scalar.
func (v Value) MarshalJSON() ([]byte, error) { return v.AppendJSON(nil) }

// UnmarshalJSON reads a native scalar back, preserving integer-ness.
func (v *Value) UnmarshalJSON(data []byte) error {
	s := strings.TrimSpace(string(data))
	if s == "" {
		return fmt.Errorf("apiv1: empty value")
	}
	if s[0] == '"' {
		var str string
		if err := json.Unmarshal(data, &str); err != nil {
			return err
		}
		*v = StringValue(str)
		return nil
	}
	if !strings.ContainsAny(s, ".eE") {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			*v = IntValue(i)
			return nil
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("apiv1: bad value %q", s)
	}
	*v = FloatValue(f)
	return nil
}

// Tuple is one Information tuple on the public edge — the JSON rendering of
// the internal telemetry tuple (timestamp, value, fact/insight,
// measured/predicted) plus its position in the metric's stream.
type Tuple struct {
	// Metric names the stream the tuple belongs to.
	Metric string `json:"metric"`
	// TimestampNS is nanoseconds since the Unix epoch at capture/derivation.
	TimestampNS int64 `json:"timestamp_ns"`
	// Value is the metric or insight value.
	Value float64 `json:"value"`
	// Kind is "fact" or "insight".
	Kind string `json:"kind"`
	// Source is "measured" or "predicted".
	Source string `json:"source"`
	// StreamID is the tuple's broker entry ID (contiguous from 1 per
	// metric); pass it back as ?after= to resume a subscription. 0 when the
	// tuple did not come off the stream (e.g. a latest-value read from the
	// vertex queue).
	StreamID uint64 `json:"stream_id,omitempty"`
}

// FrameType tags a subscription Frame.
type FrameType string

// Frame types.
const (
	// FrameTuple carries one Tuple.
	FrameTuple FrameType = "tuple"
	// FrameError carries an Error and ends the subscription (e.g.
	// slow_consumer eviction).
	FrameError FrameType = "error"
	// FrameGoaway announces a graceful server drain: no more tuples follow;
	// reconnect elsewhere. Its Error field carries code "draining".
	FrameGoaway FrameType = "goaway"
)

// Frame is the envelope of every message a live subscription delivers, over
// WebSocket (one JSON text message per frame) and SSE (one event per frame,
// the SSE id field carrying the tuple's StreamID) alike.
type Frame struct {
	Type  FrameType `json:"type"`
	Tuple *Tuple    `json:"tuple,omitempty"`
	Error *Error    `json:"error,omitempty"`
}

// TopicsResponse lists the metric streams the backend serves.
type TopicsResponse struct {
	Topics []string `json:"topics"`
}

// HealthResponse is the body of /api/v1/healthz.
type HealthResponse struct {
	// Status is "ok", "degraded", or "draining".
	Status string `json:"status"`
	// Degraded reports whether any backend vertex or replicated topic is
	// unhealthy.
	Degraded bool `json:"degraded"`
}

// RetentionTier summarizes one archive tier of one metric.
type RetentionTier struct {
	// Tier is "raw", "10s", or "1m".
	Tier string `json:"tier"`
	// Files, Bytes, Records describe the tier's on-disk footprint.
	Files   int   `json:"files"`
	Bytes   int64 `json:"bytes"`
	Records int64 `json:"records"`
	// FirstTimestampNS..LastTimestampNS is the tier's covered span.
	FirstTimestampNS int64 `json:"first_timestamp_ns"`
	LastTimestampNS  int64 `json:"last_timestamp_ns"`
}

// RetentionMetric is the archive footprint of one metric across tiers.
type RetentionMetric struct {
	Metric string          `json:"metric"`
	Tiers  []RetentionTier `json:"tiers"`
}

// RetentionResponse is the body of GET /api/v1/retention.
type RetentionResponse struct {
	Metrics []RetentionMetric `json:"metrics"`
}

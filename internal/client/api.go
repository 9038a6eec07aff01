package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"
)

// SimRequest mirrors the POST /v1/sim body.
type SimRequest struct {
	Bench     string `json:"bench"`
	Scheme    string `json:"scheme,omitempty"`
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	Audit     bool   `json:"audit,omitempty"`
}

// SimResponse mirrors the POST /v1/sim success body.
type SimResponse struct {
	Bench    string  `json:"bench"`
	Scheme   string  `json:"scheme"`
	EnergyJ  float64 `json:"energy_j"`
	ExecMS   float64 `json:"exec_ms"`
	WaitMS   float64 `json:"wait_ms"`
	Requests int     `json:"requests"`
	PowerOps int     `json:"power_ops"`
}

// ExperimentRequest mirrors the POST /v1/experiment body.
type ExperimentRequest struct {
	ID        string `json:"id"`
	Format    string `json:"format,omitempty"`
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	Audit     bool   `json:"audit,omitempty"`
	Durable   bool   `json:"durable,omitempty"`
}

// timeoutQuery renders a server-side ?timeout= query (empty for 0).
func timeoutQuery(d time.Duration) string {
	if d <= 0 {
		return ""
	}
	return "?timeout=" + url.QueryEscape(d.String())
}

// Sim runs one (benchmark, scheme) simulation. serverTimeout sets the
// per-request server-side deadline (0 = the server's default).
func (c *Client) Sim(ctx context.Context, req SimRequest, serverTimeout time.Duration) (*SimResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	res, err := c.Do(ctx, http.MethodPost, "/v1/sim"+timeoutQuery(serverTimeout), body, "")
	if err != nil {
		return nil, err
	}
	var out SimResponse
	if err := json.Unmarshal(res.Body, &out); err != nil {
		return nil, fmt.Errorf("client: decoding sim response: %w", err)
	}
	return &out, nil
}

// Experiment renders one experiment and returns the full result —
// the body bytes are identical to an offline dpmexp render of the
// same experiment, and Result.Replayed reports whether the server
// served them from its idempotency cache.
func (c *Client) Experiment(ctx context.Context, req ExperimentRequest, serverTimeout time.Duration) (*Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.Do(ctx, http.MethodPost, "/v1/experiment"+timeoutQuery(serverTimeout), body, "")
}

// ListExperiments returns the experiment ids the server accepts.
func (c *Client) ListExperiments(ctx context.Context) ([]string, error) {
	return c.getList(ctx, "/v1/experiments")
}

// ListBenchmarks returns the benchmark names the server accepts.
func (c *Client) ListBenchmarks(ctx context.Context) ([]string, error) {
	return c.getList(ctx, "/v1/benchmarks")
}

func (c *Client) getList(ctx context.Context, path string) ([]string, error) {
	res, err := c.Do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return nil, err
	}
	var out []string
	if err := json.Unmarshal(res.Body, &out); err != nil {
		return nil, fmt.Errorf("client: decoding %s: %w", path, err)
	}
	return out, nil
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.Do(ctx, http.MethodGet, "/healthz", nil, "")
	return err
}

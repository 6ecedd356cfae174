package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// Client is the daemon's HTTP client. Errors decoded from the server's
// taxonomy-mapped responses wrap the same sentinels the Fleet returns
// in-process, so errors.Is(err, ErrBusy) and friends work unchanged
// over the wire. The client performs no retries and keeps no clocks;
// callers own backoff policy (see cmd/wlload).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"). hc nil means http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// Create registers a device.
func (c *Client) Create(ctx context.Context, id string, spec DeviceSpec) error {
	body, err := json.Marshal(createRequest{ID: id, Spec: spec})
	if err != nil {
		return err
	}
	_, err = c.do(ctx, http.MethodPost, "/v1/devices", body)
	return err
}

// Write services count workload-driven writes.
func (c *Client) Write(ctx context.Context, id string, count uint64) (WriteResult, error) {
	return c.write(ctx, id, writeRequest{Count: count})
}

// WriteAddrs services explicit software-address writes, in order.
func (c *Client) WriteAddrs(ctx context.Context, id string, addrs []uint64) (WriteResult, error) {
	return c.write(ctx, id, writeRequest{Addrs: addrs})
}

func (c *Client) write(ctx context.Context, id string, req writeRequest) (WriteResult, error) {
	// Room for addresses of up to seven digits; larger ones grow it.
	body := appendWriteRequest(make([]byte, 0, 32+8*len(req.Addrs)), req)
	data, err := c.do(ctx, http.MethodPost, "/v1/devices/"+url.PathEscape(id)+"/writes", body)
	if err != nil {
		return WriteResult{}, err
	}
	var wr WriteResult
	if err := json.Unmarshal(data, &wr); err != nil {
		return WriteResult{}, fmt.Errorf("serve: decoding write result: %v", err)
	}
	return wr, nil
}

// Status fetches the device's observable state.
func (c *Client) Status(ctx context.Context, id string) (DeviceStatus, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/devices/"+url.PathEscape(id), nil)
	if err != nil {
		return DeviceStatus{}, err
	}
	var st DeviceStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return DeviceStatus{}, fmt.Errorf("serve: decoding status: %v", err)
	}
	return st, nil
}

// Metrics fetches the device's observer report JSON.
func (c *Client) Metrics(ctx context.Context, id string) (json.RawMessage, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/devices/"+url.PathEscape(id)+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(data), nil
}

// Checkpoint makes the device's checkpoint durable and returns the
// image bytes.
func (c *Client) Checkpoint(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/devices/"+url.PathEscape(id)+"/checkpoint", nil)
}

// Delete removes the device and its spilled state.
func (c *Client) Delete(ctx context.Context, id string) error {
	_, err := c.do(ctx, http.MethodDelete, "/v1/devices/"+url.PathEscape(id), nil)
	return err
}

// List fetches the sorted device IDs.
func (c *Client) List(ctx context.Context) ([]string, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/devices", nil)
	if err != nil {
		return nil, err
	}
	var lr listResponse
	if err := json.Unmarshal(data, &lr); err != nil {
		return nil, fmt.Errorf("serve: decoding device list: %v", err)
	}
	return lr.Devices, nil
}

// Stacks fetches the registered device-stack names.
func (c *Client) Stacks(ctx context.Context) ([]string, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/stacks", nil)
	if err != nil {
		return nil, err
	}
	var sr struct {
		Stacks []string `json:"stacks"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("serve: decoding stacks: %v", err)
	}
	return sr.Stacks, nil
}

// Health fetches the fleet summary.
func (c *Client) Health(ctx context.Context) (Health, error) {
	data, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		return Health{}, fmt.Errorf("serve: decoding health: %v", err)
	}
	return h, nil
}

// do issues one request with a JSON body (none when nil) and returns
// the response body, decoding error payloads back into the sentinel
// taxonomy.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			if sentinel := sentinelFor(eb.Kind); sentinel != nil {
				return nil, fmt.Errorf("%s: %w", eb.Error, sentinel)
			}
			return nil, fmt.Errorf("serve: HTTP %d: %s", resp.StatusCode, eb.Error)
		}
		return nil, fmt.Errorf("serve: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
)

// statusTable is the single mapping from the error taxonomy to HTTP
// status codes. The client reverses it (kind → sentinel), so errors.Is
// works identically against a Fleet and against a remote daemon.
var statusTable = []struct {
	err  error
	kind string
	code int
}{
	{sim.ErrBadConfig, "bad_config", http.StatusBadRequest},
	{trace.ErrUnknownWorkload, "unknown_workload", http.StatusBadRequest},
	{sim.ErrUnknownExperiment, "unknown_experiment", http.StatusBadRequest},
	{ErrUnknownDevice, "unknown_device", http.StatusNotFound},
	{ErrDeviceExists, "device_exists", http.StatusConflict},
	{ErrDeviceStopped, "device_stopped", http.StatusConflict},
	{ErrDeviceCrippled, "device_crippled", http.StatusConflict},
	{ErrBusy, "busy", http.StatusTooManyRequests},
	{ErrFleetFull, "fleet_full", http.StatusInsufficientStorage},
	{ErrClosed, "fleet_closed", http.StatusServiceUnavailable},
	{sim.ErrConfigMismatch, "config_mismatch", http.StatusInternalServerError},
	{ckpt.ErrBadCheckpoint, "bad_checkpoint", http.StatusInternalServerError},
}

// errorBody is the JSON error payload.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// classify maps an error to its table row, defaulting to 500.
func classify(err error) (kind string, code int) {
	for _, row := range statusTable {
		if errors.Is(err, row.err) {
			return row.kind, row.code
		}
	}
	return "internal", http.StatusInternalServerError
}

// sentinelFor reverses classify for the client.
func sentinelFor(kind string) error {
	for _, row := range statusTable {
		if row.kind == kind {
			return row.err
		}
	}
	return nil
}

// createRequest is POST /v1/devices' body.
type createRequest struct {
	ID   string     `json:"id"`
	Spec DeviceSpec `json:"spec"`
}

// writeRequest is POST /v1/devices/{id}/writes' body: exactly one of
// Count (workload-driven) or Addrs (explicit addresses).
type writeRequest struct {
	Count uint64   `json:"count,omitempty"`
	Addrs []uint64 `json:"addrs,omitempty"`
}

// listResponse is GET /v1/devices' body.
type listResponse struct {
	Devices []string `json:"devices"`
}

// NewHandler builds the daemon's HTTP API over the fleet:
//
//	GET    /healthz                    fleet health
//	GET    /v1/stacks                  registered device-stack names
//	GET    /v1/devices                 sorted device IDs
//	POST   /v1/devices                 create {id, spec}
//	GET    /v1/devices/{id}            device status
//	POST   /v1/devices/{id}/writes     {count} or {addrs}
//	GET    /v1/devices/{id}/metrics    observer report JSON
//	POST   /v1/devices/{id}/checkpoint checkpoint image (octet-stream)
//	DELETE /v1/devices/{id}            delete device
func NewHandler(f *Fleet) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Health())
	})
	mux.HandleFunc("GET /v1/stacks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"stacks": sim.DeviceStackNames()})
	})
	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, listResponse{Devices: f.List()})
	})
	mux.HandleFunc("POST /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		var req createRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := f.Create(req.ID, req.Spec); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
	})
	mux.HandleFunc("GET /v1/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := f.Status(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/devices/{id}/writes", func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		req, err := decodeWriteRequest(body)
		if err != nil {
			writeError(w, malformedBody(err))
			return
		}
		if (req.Count > 0) == (len(req.Addrs) > 0) {
			writeError(w, fmt.Errorf("serve: exactly one of count or addrs is required: %w", sim.ErrBadConfig))
			return
		}
		var wr WriteResult
		if req.Count > 0 {
			wr, err = f.Write(r.Context(), r.PathValue("id"), req.Count)
		} else {
			wr, err = f.WriteAddrs(r.Context(), r.PathValue("id"), req.Addrs)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, wr)
	})
	mux.HandleFunc("GET /v1/devices/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		raw, err := f.Metrics(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
	})
	mux.HandleFunc("POST /v1/devices/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		img, err := f.Checkpoint(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(img)
	})
	mux.HandleFunc("DELETE /v1/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := f.Delete(r.Context(), r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// maxBodyBytes caps a request body.
const maxBodyBytes = 16 << 20

// readJSON decodes a request body, answering 400 on malformed input.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, malformedBody(err))
		return false
	}
	return true
}

// readBody reads a request body of at most maxBodyBytes, answering 400
// when it is longer or cannot be read.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			err = fmt.Errorf("serve: request body exceeds %d MiB: %w", maxBodyBytes>>20, sim.ErrBadConfig)
		} else {
			err = fmt.Errorf("serve: reading request body: %v: %w", err, sim.ErrBadConfig)
		}
		writeError(w, err)
		return nil, false
	}
	return body, true
}

// malformedBody wraps a body decoding error as a 400.
func malformedBody(err error) error {
	return fmt.Errorf("serve: malformed request body: %v: %w", err, sim.ErrBadConfig)
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

// writeError writes the taxonomy-mapped error response.
func writeError(w http.ResponseWriter, err error) {
	kind, code := classify(err)
	writeJSON(w, code, errorBody{Error: err.Error(), Kind: kind})
}

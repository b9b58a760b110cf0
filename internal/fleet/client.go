package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// ProtocolError is a non-2xx reply from the coordinator, carrying the
// machine code of the error envelope so agents can branch (re-register on
// CodeUnknownWorker, drop the retry on a lease conflict).
type ProtocolError struct {
	Status  int
	Code    string
	Message string
}

func (e *ProtocolError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("fleet: %s (HTTP %d, %s)", e.Message, e.Status, e.Code)
	}
	return fmt.Sprintf("fleet: %s (HTTP %d)", e.Message, e.Status)
}

// IsCode reports whether err is a ProtocolError with the given code.
func IsCode(err error, code string) bool {
	var pe *ProtocolError
	return errors.As(err, &pe) && pe.Code == code
}

// transport is how an Agent reaches its coordinator. protoClient speaks
// the HTTP protocol to a remote one; directTransport calls a Coordinator
// in the same process. Both surface coordinator errors as the same
// *ProtocolError, so the agent's lease semantics do not depend on which
// one it holds.
type transport interface {
	register(ctx context.Context, req RegisterRequest) (RegisterResponse, error)
	lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error)
	heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
	complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error)
	leave(ctx context.Context, workerID string) error
	jobInfo(ctx context.Context, jobID string) (JobInfo, error)
}

// directTransport calls a Coordinator's methods in-process: the transport
// of the in-process workers, with no encoding and no network in between.
type directTransport struct{ c *Coordinator }

func (d directTransport) register(_ context.Context, req RegisterRequest) (RegisterResponse, error) {
	return d.c.Register(req), nil
}

func (d directTransport) lease(_ context.Context, req LeaseRequest) (LeaseResponse, error) {
	resp, err := d.c.Lease(req)
	return resp, protocolError(err)
}

func (d directTransport) heartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	resp, err := d.c.Heartbeat(req)
	return resp, protocolError(err)
}

func (d directTransport) complete(_ context.Context, req CompleteRequest) (CompleteResponse, error) {
	resp, err := d.c.Complete(req)
	return resp, protocolError(err)
}

func (d directTransport) leave(_ context.Context, workerID string) error {
	_, err := d.c.Leave(workerID)
	return protocolError(err)
}

func (d directTransport) jobInfo(_ context.Context, jobID string) (JobInfo, error) {
	info, err := d.c.JobInfo(jobID)
	return info, protocolError(err)
}

// protocolError converts a coordinator error into the ProtocolError the
// HTTP client would decode from the reply writeFleetError sends for it.
func protocolError(err error) error {
	if err == nil {
		return nil
	}
	status, code := errorStatus(err)
	return &ProtocolError{Status: status, Code: code, Message: err.Error()}
}

// protoClient is the agent side of the coordinator protocol: thin,
// context-aware JSON calls.
type protoClient struct {
	base  string
	httpc *http.Client
}

func newProtoClient(base string, httpc *http.Client) *protoClient {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &protoClient{base: strings.TrimRight(base, "/"), httpc: httpc}
}

func (p *protoClient) register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := p.post(ctx, "/fleet/register", req, &resp)
	return resp, err
}

// lease polls for work. A non-positive Max is defaulted to 1 client-side —
// the coordinator treats it as a protocol error (400 bad_request), so the
// client never sends one.
func (p *protoClient) lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	if req.Max <= 0 {
		req.Max = 1
	}
	var resp LeaseResponse
	err := p.post(ctx, "/fleet/lease", req, &resp)
	return resp, err
}

func (p *protoClient) heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := p.post(ctx, "/fleet/heartbeat", req, &resp)
	return resp, err
}

func (p *protoClient) complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	var resp CompleteResponse
	err := p.post(ctx, "/fleet/complete", req, &resp)
	return resp, err
}

func (p *protoClient) leave(ctx context.Context, workerID string) error {
	var resp LeaveResponse
	return p.post(ctx, "/fleet/leave", LeaveRequest{WorkerID: workerID}, &resp)
}

func (p *protoClient) jobInfo(ctx context.Context, jobID string) (JobInfo, error) {
	var info JobInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		p.base+"/fleet/job?id="+url.QueryEscape(jobID), nil)
	if err != nil {
		return info, fmt.Errorf("fleet: building job request: %w", err)
	}
	resp, err := p.httpc.Do(req)
	if err != nil {
		return info, fmt.Errorf("fleet: GET /fleet/job: %w", err)
	}
	return info, decodeReply("/fleet/job", resp, &info)
}

func (p *protoClient) post(ctx context.Context, path string, body, dst any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("fleet: building %s request: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	telemetry.SetTraceHeader(req.Header, ctx)
	resp, err := p.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: POST %s: %w", path, err)
	}
	return decodeReply(path, resp, dst)
}

func decodeReply(path string, resp *http.Response, dst any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("fleet: reading %s reply: %w", path, err)
	}
	if resp.StatusCode >= 400 {
		pe := &ProtocolError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(raw))}
		var envelope server.ErrorBody
		if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
			pe.Message, pe.Code = envelope.Error, envelope.Code
		}
		return pe
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("fleet: decoding %s reply: %w", path, err)
	}
	return nil
}

package fleet

import (
	"errors"
	"net/http"

	"repro/internal/server"
)

// Handler returns the coordinator's HTTP surface (the /fleet/* endpoints
// listed in the protocol docs). Mount it alongside the service API — the
// easeml facade does — or serve it on a dedicated fleet address.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", post(func(req RegisterRequest) (RegisterResponse, error) {
		return c.Register(req), nil
	}))
	mux.HandleFunc("/fleet/lease", post(c.Lease))
	mux.HandleFunc("/fleet/heartbeat", post(c.Heartbeat))
	mux.HandleFunc("/fleet/complete", post(c.Complete))
	mux.HandleFunc("/fleet/leave", post(func(req LeaveRequest) (LeaveResponse, error) {
		released, err := c.Leave(req.WorkerID)
		return LeaveResponse{Released: released}, err
	}))
	mux.HandleFunc("/fleet/job", c.handleJob)
	return mux
}

// post serves one JSON protocol call: the POST body decodes into a Req,
// fn's reply is written as 200, and fn's error goes out in the shared
// envelope (writeFleetError).
func post[Req, Resp any](fn func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			server.WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		var req Req
		if !server.ReadJSON(w, r, &req) {
			return
		}
		resp, err := fn(req)
		if err != nil {
			writeFleetError(w, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, resp)
	}
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	info, err := c.JobInfo(r.URL.Query().Get("id"))
	if err != nil {
		writeFleetError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, info)
}

// errorStatus maps a coordinator error onto its HTTP status and envelope
// code: malformed requests are 400 "bad_request" (the sender must fix, not
// retry), unknown workers get their fleet-specific 409 code (agents
// re-register on it), lease conflicts inherit the server's 409 code,
// unknown jobs are 404, and everything else is a 500. The HTTP handlers
// and the in-process transport both go through it, so a local and a
// remote agent see the same error for the same failure.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, ErrUnknownWorker):
		return http.StatusConflict, CodeUnknownWorker
	case errors.Is(err, server.ErrLeaseConflict):
		return http.StatusConflict, server.CodeLeaseConflict
	case errors.Is(err, server.ErrNoJob):
		return http.StatusNotFound, ""
	default:
		return http.StatusInternalServerError, ""
	}
}

// writeFleetError writes err in the service's shared error envelope.
func writeFleetError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	server.WriteJSON(w, status, server.ErrorBody{Error: err.Error(), Code: code})
}

package service

import (
	"errors"
	"net/http"
	"strconv"

	"routelab/internal/obs"
)

// reply is how a handler answers, and the only value in the package
// that holds a request's http.ResponseWriter. Its methods are the only
// ways out — an envelope, a typed failure, or bytes already marshaled —
// so every error response carries the routelab-api/v1 error envelope
// and its stable code. internal/lint's TestRepoIsClean holds the
// boundary: no other non-test file here names a ResponseWriter or calls
// http.Error. The reply records what the request became, which handle
// reports once the handler returns.
type reply struct {
	w      http.ResponseWriter
	rec    *obs.Registry // the store's record: sheds, panics and write errors count here
	status int           // the status sent; 0 until then
	hit    bool          // the body came from the response cache
}

// handle registers h on mux as the endpoint family name: it gives h a
// fresh reply and then emits the family's metrics once on rec, the
// store's record — the service/<name> stage timer,
// service.requests.<name>, service.errors.<name> for a status >= 400,
// and service.cache.hits, whose handles exist from registration. A
// route and its alias share one name, so a family counts together.
func handle(mux *http.ServeMux, rec *obs.Registry, pattern, name string, h func(*reply, *http.Request)) {
	stage := "service/" + name
	requests := rec.Counter("service.requests." + name)
	errs := rec.Counter("service.errors." + name)
	hits := rec.Counter("service.cache.hits")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		defer rec.StartStage(stage)()
		requests.Inc()
		rp := &reply{w: w, rec: rec}
		h(rp, r)
		if rp.status >= 400 {
			errs.Inc()
		}
		if rp.hit {
			hits.Inc()
		}
	})
}

// envelope marshals data under kind and sends it with status. A payload
// that cannot be marshaled becomes a typed 500.
func (rp *reply) envelope(status int, kind string, data any) {
	body, err := marshalEnvelope(kind, data)
	if err != nil {
		status = http.StatusInternalServerError
		body, err = marshalEnvelope("error", ErrorData{Error: err.Error(), Code: CodeInternal})
	}
	if err != nil {
		rp.status = status
		http.Error(rp.w, err.Error(), status)
		return
	}
	rp.send(status, "application/json", body)
}

// fail sends one typed error envelope — the single exit for every
// non-2xx response.
func (rp *reply) fail(status int, e APIError) {
	rp.envelope(status, "error", ErrorData{Error: e.Message, Code: e.Code})
}

// failErr maps a computation or scenario-resolution failure to its
// status: a shed is 429 with Retry-After, an unknown scenario 404, a
// context death (the request ran out of time waiting or computing) 504
// with its detail prefixed by timeout, anything else 500. Sheds and
// recovered panics are counted here, where the response is written, so
// service.shed.* and service.panics equal the responses clients saw
// (shed.go says why).
func (rp *reply) failErr(err error, timeout string) {
	var oe *OverloadError
	var pe *panicError
	switch {
	case errors.As(err, &oe):
		rp.w.Header().Set("Retry-After", strconv.Itoa(max(oe.RetryAfter, minRetryAfter)))
		rp.rec.Counter("service.shed." + oe.What + "s").Inc()
		rp.fail(http.StatusTooManyRequests, apiErr(CodeOverloaded, oe.Error()))
	case errors.Is(err, ErrUnknownScenario):
		rp.fail(http.StatusNotFound, apiErr(CodeNotFound, err.Error()))
	case ctxDied(err):
		rp.fail(http.StatusGatewayTimeout, apiErr(CodeTimeout, timeout+err.Error()))
	default:
		if errors.As(err, &pe) {
			rp.rec.Counter("service.panics").Inc()
		}
		rp.fail(http.StatusInternalServerError, apiErr(CodeInternal, err.Error()))
	}
}

// bytes sends a body already marshaled as a 200 of contentType. cache
// is the CacheHeader value of a computed body ("hit" or "miss"), or ""
// for a static body that never passes through the cache.
func (rp *reply) bytes(contentType, cache string, body []byte) {
	if cache != "" {
		rp.w.Header().Set(CacheHeader, cache)
		rp.hit = cache == "hit"
	}
	rp.send(http.StatusOK, contentType, body)
}

// send commits status and body. A failed or short write means the
// client disconnected mid-response; the server cannot repair that, so
// the error is counted rather than propagated.
func (rp *reply) send(status int, contentType string, body []byte) {
	rp.w.Header().Set("Content-Type", contentType)
	rp.status = status
	rp.w.WriteHeader(status)
	if _, err := rp.w.Write(body); err != nil {
		rp.rec.Counter("service.write_errors").Inc()
	}
}

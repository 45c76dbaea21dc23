package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// served is one handler on a loopback listener.
type served struct {
	url  string
	hs   *http.Server
	done chan error
}

// serve starts h on a fresh loopback port.
func serve(h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down and waits for its connections to finish.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// probe asks url's /healthz once and requires a 200.
func probe(client *http.Client, url string) error {
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz: %s", url, resp.Status)
	}
	return nil
}

// timed wraps h so each request's handler time reaches rec, together with
// the response headers the handler set.
func timed(h http.Handler, rec func(r *http.Request, hdr http.Header, start, end time.Time)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		rec(r, w.Header(), start, time.Now())
	})
}

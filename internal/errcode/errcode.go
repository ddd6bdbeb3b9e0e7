// Package errcode is the closed set of error codes that cross a process
// boundary: the remote wire and the job journal. Every sentinel a peer or a
// restarted process must be able to tell apart is declared through New with
// its own Code; the code travels next to the error's message, and the
// receiving side rebuilds an Error that errors.Is matches against the
// origin's sentinel. No side ever reads a message to recover a type.
package errcode

import "errors"

// Code identifies one sentinel error. Codes are written to the wire and to
// the job journal, so a value is never reused or renumbered: new codes are
// appended at the end.
type Code uint8

const (
	// None is the zero value: no error, or an error without a code.
	None Code = iota

	StorageClosed
	StorageArrayExists
	StorageNoArray
	StorageImmutable
	StorageScratchQuota

	JobsQueueFull
	JobsQuotaExceeded
	JobsDraining
	JobsUnknownJob
	JobsCancelled
	JobsNoProxy

	ProxyUnknown
	ProxyGone
	ProxyQuota
	ProxyNoRefs
	ProxyClosed

	JobstoreClosed
	JobstorePoisoned

	ClusterClosed
)

// Error is an error with a code. Two Errors match under errors.Is when
// their codes are equal and not None, so an Error rebuilt from a received
// code and message is the origin's sentinel to errors.Is. A code this
// build does not know matches no sentinel and reads as its message.
type Error struct {
	Code Code
	Msg  string
}

// New returns an error with code c and message msg.
func New(c Code, msg string) error { return &Error{Code: c, Msg: msg} }

func (e *Error) Error() string { return e.Msg }

// Is reports whether target is an Error with the same, non-None code.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && e.Code != None && t.Code == e.Code
}

// Of returns the code of the first Error in err's chain, or None.
func Of(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return None
}

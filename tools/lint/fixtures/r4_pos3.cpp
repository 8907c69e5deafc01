// R4 positive: an unrelated accept() does not resolve a tentative frame.
// Only rollback() (or returning the token) does; FreeProfile has no
// accept().
struct Socket {
  void accept(int token);
};

struct Plan {
  int commit_tentative(int t, int q);
  void rollback(int token);
};

void handshake(Plan& plan, Socket& socket, int t) {
  int token = plan.commit_tentative(t, 1);  // LINT-EXPECT: R4
  socket.accept(token);
}

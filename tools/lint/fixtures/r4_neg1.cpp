// R4 negative: resolved frames and token transfer.
struct Plan {
  int commit_tentative(int t, int q);
  void accept(int token);
  void rollback(int token);
};

bool try_place(Plan& plan, int t, int q) {
  int token = plan.commit_tentative(t, q);
  if (token < 0) {
    plan.rollback(token);
    return false;
  }
  plan.accept(token);
  return true;
}

int transfer_token(Plan& plan, int t) {
  return plan.commit_tentative(t, 1);  // token transferred to the caller
}

// R4 positive: a token that is dropped without being resolved.
struct Plan {
  int commit_tentative(int t, int q);
};

int fire_and_forget(Plan& plan, int t) {
  int token = plan.commit_tentative(t, 1);  // LINT-EXPECT: R4
  (void)token;
  return t;
}
